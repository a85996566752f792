(* Hand-optimised native kernels: the substitute for the proprietary Cray
   Compilation Environment (CPU baseline) and the Nvidia-compiled OpenACC
   code (GPU baseline). A mature vendor compiler's main advantage over
   our closure-JIT is full native-code generation with vectorisation;
   hand-written OCaml loops over the raw Bigarray data play that role.

   Numerics deliberately mirror the benchmark Fortran expression order
   exactly so differential tests can require bit-identical grids. *)

module A1 = Bigarray.Array1

type grid3 = {
  g_buf : Memref_rt.t;
  g_nx : int; (* interior extents; allocation is (nx+2)(ny+2)(nz+2) *)
  g_ny : int;
  g_nz : int;
}

let grid3 ~nx ~ny ~nz =
  { g_buf = Memref_rt.create [ nx + 2; ny + 2; nz + 2 ]; g_nx = nx;
    g_ny = ny; g_nz = nz }

(* column-major strides of a (nx+2)(ny+2)(nz+2) grid *)
let strides g =
  (1, g.g_nx + 2, (g.g_nx + 2) * (g.g_ny + 2))

(* The Gauss-Seidel benchmark initial condition; mirrors the Fortran in
   [Fsc_driver.Benchmarks.gauss_seidel] exactly, including evaluation
   order: 0.01 i^2 + 0.02 j k + 0.03 k (non-harmonic so the solver does
   real work, with a cross term so index mistakes cannot cancel). *)
let gs_init i j k =
  (0.01 *. float_of_int i *. float_of_int i)
  +. (0.02 *. float_of_int j *. float_of_int k)
  +. (0.03 *. float_of_int k)

let init_linear g =
  let d = g.g_buf.Memref_rt.data in
  let _, sy, sz = strides g in
  for k = 0 to g.g_nz + 1 do
    for j = 0 to g.g_ny + 1 do
      let row = (j * sy) + (k * sz) in
      for i = 0 to g.g_nx + 1 do
        A1.unsafe_set d (row + i) (gs_init i j k)
      done
    done
  done

(* ---- Gauss-Seidel (7-point, Jacobi-style sweep + copy-back) ---- *)

(* unew <- average of u's six orthogonal neighbours, interior only *)
let gs3d_sweep ?pool ~u ~unew () =
  let du = u.g_buf.Memref_rt.data and dn = unew.g_buf.Memref_rt.data in
  let _, sy, sz = strides u in
  let nx = u.g_nx and ny = u.g_ny and nz = u.g_nz in
  let do_k k =
    for j = 1 to ny do
      let row = (j * sy) + (k * sz) in
      for i = row + 1 to row + nx do
        (* mirrors (u(i-1)+u(i+1)+u(j-1)+u(j+1)+u(k-1)+u(k+1)) / 6.0d0 *)
        let s =
          A1.unsafe_get du (i - 1)
          +. A1.unsafe_get du (i + 1)
          +. A1.unsafe_get du (i - sy)
          +. A1.unsafe_get du (i + sy)
          +. A1.unsafe_get du (i - sz)
          +. A1.unsafe_get du (i + sz)
        in
        A1.unsafe_set dn i (s /. 6.0)
      done
    done
  in
  match pool with
  | Some pool ->
    Domain_pool.parallel_for pool ~lo:1 ~hi:(nz + 1) (fun lo hi ->
        for k = lo to hi - 1 do
          do_k k
        done)
  | None ->
    for k = 1 to nz do
      do_k k
    done

(* u <- unew on the interior *)
let gs3d_copyback ?pool ~u ~unew () =
  let du = u.g_buf.Memref_rt.data and dn = unew.g_buf.Memref_rt.data in
  let _, sy, sz = strides u in
  let nx = u.g_nx and ny = u.g_ny and nz = u.g_nz in
  let do_k k =
    for j = 1 to ny do
      let row = (j * sy) + (k * sz) in
      for i = row + 1 to row + nx do
        A1.unsafe_set du i (A1.unsafe_get dn i)
      done
    done
  in
  match pool with
  | Some pool ->
    Domain_pool.parallel_for pool ~lo:1 ~hi:(nz + 1) (fun lo hi ->
        for k = lo to hi - 1 do
          do_k k
        done)
  | None ->
    for k = 1 to nz do
      do_k k
    done

let gs3d_run ?pool ~u ~unew ~iters () =
  for _ = 1 to iters do
    gs3d_sweep ?pool ~u ~unew ();
    gs3d_copyback ?pool ~u ~unew ()
  done

(* ---- Piacsek-Williams advection (three fused stencils) ---- *)

(* su/sv/sw <- PW advection source terms of u/v/w; mirrors the Fortran
   expression structure in [Fsc_driver.Benchmarks.pw_advection]. *)
let pw_advect ?pool ~u ~v ~w ~su ~sv ~sw ~rdx ~rdy ~rdz () =
  let du = u.g_buf.Memref_rt.data
  and dv = v.g_buf.Memref_rt.data
  and dw = w.g_buf.Memref_rt.data
  and dsu = su.g_buf.Memref_rt.data
  and dsv = sv.g_buf.Memref_rt.data
  and dsw = sw.g_buf.Memref_rt.data in
  let _, sy, sz = strides u in
  let nx = u.g_nx and ny = u.g_ny and nz = u.g_nz in
  let hx = 0.5 *. rdx and hy = 0.5 *. rdy and hz = 0.5 *. rdz in
  let advect d df i =
    (* 0.5*rdx*( f(i-1)*(d(i)+d(i-1)) - f(i+1)*(d(i)+d(i+1)) ) + y, z *)
    let c = A1.unsafe_get d i in
    (hx
     *. ((A1.unsafe_get df (i - 1) *. (c +. A1.unsafe_get d (i - 1)))
        -. (A1.unsafe_get df (i + 1) *. (c +. A1.unsafe_get d (i + 1)))))
    +. (hy
        *. ((A1.unsafe_get dv (i - sy) *. (c +. A1.unsafe_get d (i - sy)))
           -. (A1.unsafe_get dv (i + sy) *. (c +. A1.unsafe_get d (i + sy)))))
    +. (hz
        *. ((A1.unsafe_get dw (i - sz) *. (c +. A1.unsafe_get d (i - sz)))
           -. (A1.unsafe_get dw (i + sz) *. (c +. A1.unsafe_get d (i + sz)))))
  in
  let do_k k =
    for j = 1 to ny do
      let row = (j * sy) + (k * sz) in
      for i = row + 1 to row + nx do
        A1.unsafe_set dsu i (advect du du i);
        A1.unsafe_set dsv i (advect dv du i);
        A1.unsafe_set dsw i (advect dw du i)
      done
    done
  in
  match pool with
  | Some pool ->
    Domain_pool.parallel_for pool ~lo:1 ~hi:(nz + 1) (fun lo hi ->
        for k = lo to hi - 1 do
          do_k k
        done)
  | None ->
    for k = 1 to nz do
      do_k k
    done
