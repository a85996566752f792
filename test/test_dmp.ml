(* Distributed-memory tests: decomposition properties, the DMP/MPI
   dialect lowerings, halo exchange correctness, and distributed
   Gauss-Seidel equivalence with serial execution. *)

open Fsc_ir
module D = Fsc_dmp.Decomp
module DX = Fsc_dmp.Dist_exec
module Rt = Fsc_rt.Memref_rt
module V = Fsc_rt.Vendor_kernels

let () = Fsc_dialects.Registry.init ()

(* ---- decomposition ---- *)

let test_factorize () =
  Alcotest.(check (pair int int)) "8192" (64, 128) (D.factorize 8192);
  Alcotest.(check (pair int int)) "128" (8, 16) (D.factorize 128);
  Alcotest.(check (pair int int)) "7 (prime)" (1, 7) (D.factorize 7);
  Alcotest.(check (pair int int)) "1" (1, 1) (D.factorize 1)

let test_local_ranges () =
  let d = D.create ~global:(16, 10, 9) ~ranks:6 in
  (* 6 = 2 x 3 *)
  Alcotest.(check int) "ranks" 6 (D.nranks d);
  (* ranges tile the domain *)
  Alcotest.(check bool) "partition" true (D.check_partition d);
  (* x never decomposed *)
  for r = 0 to 5 do
    let (xl, xh), _, _ = D.local_range d r in
    Alcotest.(check (pair int int)) "x full" (1, 16) (xl, xh)
  done

let test_neighbors () =
  let d = D.create ~global:(8, 8, 8) ~ranks:4 in
  (* 2 x 2 grid: rank 0 = (0,0) *)
  Alcotest.(check bool) "no low neighbour at edge" true
    (D.neighbor d 0 D.Y_low = None && D.neighbor d 0 D.Z_low = None);
  (match D.neighbor d 0 D.Y_high with
  | Some n ->
    Alcotest.(check bool) "reciprocal" true
      (D.neighbor d n D.Y_low = Some 0)
  | None -> Alcotest.fail "expected neighbour");
  Alcotest.(check bool) "halo bytes positive" true (D.halo_bytes d 0 > 0)

(* [create] succeeds exactly when some divisor pair fits the grid, and a
   successful decomposition gives every rank at least one cell per
   dimension (no silent degenerate ranks). *)
let prop_partition =
  QCheck.Test.make ~name:"decomposition partitions the grid or is rejected"
    ~count:100
    QCheck.(pair (int_range 1 64) (triple (int_range 2 20) (int_range 2 20)
                                     (int_range 2 20)))
    (fun (ranks, (nx, ny, nz)) ->
      let fits =
        List.exists
          (fun py ->
            ranks mod py = 0 && py <= ny && ranks / py <= nz)
          (List.init ranks (fun i -> i + 1))
      in
      match D.create ~global:(nx, ny, nz) ~ranks with
      | d ->
        fits && D.check_partition d
        && List.for_all
             (fun r ->
               let lx, ly, lz = D.local_extents d r in
               lx >= 1 && ly >= 1 && lz >= 1)
             (List.init (D.nranks d) Fun.id)
      | exception D.Invalid_decomp _ -> not fits)

let test_decomp_rejects () =
  let expect_invalid what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_decomp" what
    | exception D.Invalid_decomp diag ->
      Alcotest.(check string) (what ^ ": diagnostic code") "decomp"
        diag.Fsc_analysis.Diag.d_code
  in
  (* more ranks than ny*nz cells *)
  expect_invalid "ranks > ny*nz" (fun () ->
      D.create ~global:(12, 12, 12) ~ranks:1000);
  (* prime rank count exceeding both decomposed extents: 13 > 10 and
     13 > 9, and 13 has no other divisors *)
  expect_invalid "oversized prime" (fun () ->
      D.create ~global:(16, 10, 9) ~ranks:13);
  expect_invalid "zero ranks" (fun () ->
      D.create ~global:(8, 8, 8) ~ranks:0);
  expect_invalid "empty grid" (fun () ->
      D.create ~global:(8, 0, 8) ~ranks:2)

(* the fit-aware grid choice: near-square would be 2x2, but ny = 1 only
   admits 1x4 *)
let test_decomp_fit_aware () =
  let d = D.create ~global:(16, 1, 16) ~ranks:4 in
  Alcotest.(check (pair int int)) "1x4 grid" (1, 4) (d.D.py, d.D.pz);
  Alcotest.(check bool) "partition" true (D.check_partition d);
  (* when the square pair fits it is still preferred *)
  let d = D.create ~global:(16, 16, 16) ~ranks:4 in
  Alcotest.(check (pair int int)) "2x2 grid" (2, 2) (d.D.py, d.D.pz)

(* ---- simulated MPI endpoint validation ---- *)

let test_mpi_validation () =
  let m = Fsc_rt.Mpi_sim.create 2 in
  let expect_invalid what needle f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument msg ->
      let contains s sub =
        let n = String.length sub in
        let ok = ref false in
        for i = 0 to String.length s - n do
          if String.sub s i n = sub then ok := true
        done;
        !ok
      in
      if not (contains msg needle) then
        Alcotest.failf "%s: error %S does not mention %S" what msg needle
  in
  expect_invalid "bad src" "src" (fun () ->
      Fsc_rt.Mpi_sim.send m ~src:7 ~dst:0 ~tag:0 [| 1.0 |]);
  expect_invalid "bad dst" "dst" (fun () ->
      Fsc_rt.Mpi_sim.send m ~src:0 ~dst:(-1) ~tag:0 [| 1.0 |]);
  expect_invalid "recv from empty mailbox" "mailbox empty" (fun () ->
      Fsc_rt.Mpi_sim.recv m ~src:0 ~dst:1 ~tag:0);
  (* a mismatched recv must name what IS pending *)
  Fsc_rt.Mpi_sim.send m ~src:0 ~dst:1 ~tag:3 [| 1.0; 2.0 |];
  expect_invalid "mismatched tag" "0->1 tag 3" (fun () ->
      Fsc_rt.Mpi_sim.recv m ~src:0 ~dst:1 ~tag:0);
  Alcotest.(check (list (triple int int int))) "pending" [ (0, 1, 3) ]
    (Fsc_rt.Mpi_sim.pending m);
  let p = Fsc_rt.Mpi_sim.recv m ~src:0 ~dst:1 ~tag:3 in
  Alcotest.(check int) "payload" 2 (Array.length p);
  Alcotest.(check (list (triple int int int))) "drained" []
    (Fsc_rt.Mpi_sim.pending m)

let prop_split_covers =
  QCheck.Test.make ~name:"split covers 1..n contiguously" ~count:200
    QCheck.(pair (int_range 1 50) (int_range 1 12))
    (fun (n, p) ->
      let pieces = List.init p (fun i -> D.split n p i) in
      let covered =
        List.concat_map
          (fun (lo, hi) -> if hi >= lo then List.init (hi - lo + 1)
                               (fun i -> lo + i) else [])
          pieces
      in
      List.sort_uniq compare covered = List.init n (fun i -> i + 1))

(* ---- halo exchange correctness ---- *)

(* Drive the distributed Gauss-Seidel with the vendor kernels: each
   superstep swaps u's halos, then every rank runs sweep + copy-back
   over its local grid. *)
let gs_compute t ~rank =
  let st = t.DX.ranks.(rank) in
  let lx, ly, lz = D.local_extents t.DX.decomp rank in
  let local name =
    { V.g_buf = DX.field st name; V.g_nx = lx; V.g_ny = ly; V.g_nz = lz }
  in
  V.gs3d_run ~u:(local "u") ~unew:(local "unew") ~iters:1 ()

let gs_iterate t ~iters =
  DX.iterate t ~iters ~swap_fields:[ "u" ] ~compute:(gs_compute t)

(* Run [f] with Obs counters live (they are off unless recording). *)
let with_counters f =
  Fsc_obs.Obs.set_counters_only true;
  Fun.protect ~finally:(fun () -> Fsc_obs.Obs.set_counters_only false) f

let gs_serial ~nx ~ny ~nz ~iters =
  let u = V.grid3 ~nx ~ny ~nz and unew = V.grid3 ~nx ~ny ~nz in
  V.init_linear u;
  V.gs3d_run ~u ~unew ~iters ();
  u

let gs_init_fields name (i, j, k) =
  match name with
  | "u" -> V.gs_init i j k
  | _ -> 0.0

let max_interior_diff ~nx ~ny ~nz a b =
  let max_diff = ref 0.0 in
  for k = 1 to nz do
    for j = 1 to ny do
      for i = 1 to nx do
        let x = Rt.get a [| i; j; k |] and y = Rt.get b [| i; j; k |] in
        max_diff := Float.max !max_diff (Float.abs (x -. y))
      done
    done
  done;
  !max_diff

let test_halo_exchange () =
  let global = (6, 8, 10) in
  let d = D.create ~global ~ranks:4 in
  let init _name (i, j, k) =
    float_of_int ((100 * i) + (10 * j) + k)
  in
  let t = DX.create d ~fields:[ "u" ] ~init in
  (* scribble over every halo, then swap: halos must be restored to the
     neighbour's true values (global boundaries keep their init value) *)
  Array.iter
    (fun st ->
      let buf = DX.field st "u" in
      let dims = buf.Rt.dims in
      for k = 0 to dims.(2) - 1 do
        for i = 0 to dims.(0) - 1 do
          Rt.set buf [| i; 0; k |] (-1.0);
          Rt.set buf [| i; dims.(1) - 1; k |] (-1.0)
        done
      done)
    t.DX.ranks;
  DX.iterate t ~iters:1 ~swap_fields:[ "u" ] ~compute:(fun ~rank:_ -> ());
  (* interior halos restored *)
  Array.iter
    (fun st ->
      let (_, _), (yl, yh), (zl, _) = st.DX.rs_range in
      let buf = DX.field st "u" in
      (match D.neighbor d st.DX.rs_rank D.Y_low with
      | Some _ ->
        (* halo row j=0 corresponds to global j = yl - 1 *)
        Alcotest.(check (float 0.)) "y-low halo restored"
          (init "u" (2, yl - 1, zl))
          (Rt.get buf [| 2; 0; 1 |])
      | None -> ());
      match D.neighbor d st.DX.rs_rank D.Y_high with
      | Some _ ->
        Alcotest.(check (float 0.)) "y-high halo restored"
          (init "u" (2, yh + 1, zl))
          (Rt.get buf [| 2; buf.Rt.dims.(1) - 1; 1 |])
      | None -> ())
    t.DX.ranks

(* Distributed GS must be bitwise-identical to serial over the interior
   at every rank count that fits — including 1, a prime, the full extent
   of one dimension, and a non-square process grid — with ranks running
   concurrently on a pool. *)
let test_distributed_gs_equals_serial () =
  let nx, ny, nz = (6, 8, 10) in
  let iters = 3 in
  let serial = gs_serial ~nx ~ny ~nz ~iters in
  Fsc_rt.Domain_pool.with_pool 3 (fun pool ->
      List.iter
        (fun ranks ->
          let d = D.create ~global:(nx, ny, nz) ~ranks in
          let t =
            DX.create ~pool d ~fields:[ "u"; "unew" ] ~init:gs_init_fields
          in
          let label =
            Printf.sprintf "%d ranks (%dx%d grid)" ranks d.D.py d.D.pz
          in
          gs_iterate t ~iters;
          let gathered = DX.gather t "u" in
          (* compare interiors only: distributed halos of the global
             boundary follow a different update discipline than the
             serial boundary *)
          Alcotest.(check (float 0.))
            (label ^ " identical") 0.0
            (max_interior_diff ~nx ~ny ~nz serial.V.g_buf gathered);
          if ranks > 1 then begin
            let msgs, bytes = DX.stats t in
            Alcotest.(check bool)
              (label ^ " messages flowed")
              true
              (msgs > 0 && bytes > 0)
          end)
        (* 1, 2, prime, ny (8 = full y extent), non-square 2x3 *)
        [ 1; 2; 3; ny; 6 ])

(* Coalesced halo payloads: for every rank and every neighbour
   direction, packing a two-field swap set on the sender and unpacking
   it on the receiver must restore scribbled halo planes bit for bit;
   corrupted headers must raise instead of scattering into the wrong
   field. *)
let test_coalesced_roundtrip () =
  let d = D.create ~global:(6, 8, 10) ~ranks:4 in
  let names = [ "u"; "v" ] in
  let init name (i, j, k) =
    (if name = "u" then 1000.0 else 2000.0)
    +. float_of_int ((100 * i) + (10 * j) + k)
  in
  let t = DX.create d ~fields:names ~init in
  let dir_name = function
    | D.Y_low -> "y-low"
    | D.Y_high -> "y-high"
    | D.Z_low -> "z-low"
    | D.Z_high -> "z-high"
  in
  let plane_cells buf dir f =
    let dims = buf.Rt.dims in
    let fix_y j =
      for k = 0 to dims.(2) - 1 do
        for i = 0 to dims.(0) - 1 do
          f [| i; j; k |]
        done
      done
    and fix_z k =
      for j = 0 to dims.(1) - 1 do
        for i = 0 to dims.(0) - 1 do
          f [| i; j; k |]
        done
      done
    in
    match dir with
    | D.Y_low -> fix_y 0
    | D.Y_high -> fix_y (dims.(1) - 1)
    | D.Z_low -> fix_z 0
    | D.Z_high -> fix_z (dims.(2) - 1)
  in
  let tested = ref 0 in
  Array.iter
    (fun st ->
      let rank = st.DX.rs_rank in
      List.iter
        (fun dir ->
          match D.neighbor d rank dir with
          | None -> ()
          | Some nbr ->
            incr tested;
            let payload = DX.pack_coalesced t ~names ~rank ~dir in
            let back = D.opposite dir in
            let nst = t.DX.ranks.(nbr) in
            (* global coordinates of the receiver's [back] halo plane *)
            let (_, _), (yl, yh), (zl, zh) = nst.DX.rs_range in
            let global idx =
              match back with
              | D.Y_low -> (idx.(0), yl - 1, zl - 1 + idx.(2))
              | D.Y_high -> (idx.(0), yh + 1, zl - 1 + idx.(2))
              | D.Z_low -> (idx.(0), yl - 1 + idx.(1), zl - 1)
              | D.Z_high -> (idx.(0), yl - 1 + idx.(1), zh + 1)
            in
            List.iter
              (fun name ->
                plane_cells (DX.field nst name) back (fun idx ->
                    Rt.set (DX.field nst name) idx (-1.0)))
              names;
            DX.unpack_coalesced t ~names ~rank:nbr ~dir:back payload;
            List.iter
              (fun name ->
                plane_cells (DX.field nst name) back (fun idx ->
                    let want = init name (global idx) in
                    let got = Rt.get (DX.field nst name) idx in
                    if not (Float.equal want got) then
                      Alcotest.failf
                        "rank %d -> %d %s %s halo: want %g got %g" rank nbr
                        name (dir_name back) want got))
              names)
        [ D.Y_low; D.Y_high; D.Z_low; D.Z_high ])
    t.DX.ranks;
  Alcotest.(check bool) "some neighbour pairs tested" true (!tested >= 8);
  (* header validation: wrong field count, offset escaping the payload *)
  let payload = DX.pack_coalesced t ~names ~rank:0 ~dir:D.Y_high in
  (match D.neighbor d 0 D.Y_high with
  | None -> Alcotest.fail "rank 0 must have a y-high neighbour"
  | Some nbr ->
    let corrupt mutate msg =
      let p = Array.copy payload in
      mutate p;
      match DX.unpack_coalesced t ~names ~rank:nbr ~dir:D.Y_low p with
      | () -> Alcotest.failf "%s accepted" msg
      | exception Invalid_argument _ -> ()
    in
    corrupt (fun p -> p.(0) <- p.(0) +. 1.0) "wrong field count";
    corrupt
      (fun p -> p.(1) <- float_of_int (Array.length payload * 2))
      "escaping offset")

(* Pool-team supersteps (ranks pinned to members, a barrier between
   phases) are a pure scheduling strategy: they must gather the grid of
   the sequential, pool-less schedule bit for bit, move exactly one
   message per neighbour per superstep, and match serial. *)
let test_pooled_supersteps () =
  let nx, ny, nz = (6, 8, 10) in
  let iters = 3 in
  let serial = gs_serial ~nx ~ny ~nz ~iters in
  let d = D.create ~global:(nx, ny, nz) ~ranks:4 in
  let neighbours =
    List.fold_left ( + ) 0
      (List.init 4 (fun r ->
           List.length (List.filter_map (D.neighbor d r) D.directions)))
  in
  Fsc_rt.Domain_pool.with_pool 3 (fun pool ->
      let gather_with pool =
        let t =
          DX.create ?pool d ~fields:[ "u"; "unew" ] ~init:gs_init_fields
        in
        gs_iterate t ~iters;
        (DX.gather t "u", fst (DX.stats t))
      in
      let pooled, msgs = gather_with (Some pool) in
      let sequential, seq_msgs = gather_with None in
      Alcotest.(check (float 0.)) "pooled == sequential" 0.0
        (max_interior_diff ~nx ~ny ~nz pooled sequential);
      Alcotest.(check (float 0.)) "pooled == serial" 0.0
        (max_interior_diff ~nx ~ny ~nz serial.V.g_buf pooled);
      Alcotest.(check int) "one message per neighbour per superstep"
        (neighbours * iters) msgs;
      Alcotest.(check int) "same traffic sequential" msgs seq_msgs)

(* The superstep schedule's shape, pinned by the team barriers it
   costs: with a swap set each superstep is two phases (post; receive +
   compute), so k supersteps in one launch cross 2k - 1 barriers per
   team member; a swap-free (fused) superstep is one compute phase, so
   k of them cross k - 1. The exchanging run must match serial bit for
   bit, and the swap-free one must run every rank's compute exactly
   once per superstep without moving a message. *)
let test_superstep_shape () =
  let nx, ny, nz = (6, 8, 10) in
  let k = 3 in
  let serial = gs_serial ~nx ~ny ~nz ~iters:k in
  let d = D.create ~global:(nx, ny, nz) ~ranks:4 in
  let barriers = Fsc_obs.Obs.counter "pool.team_barriers" in
  with_counters @@ fun () ->
  Fsc_rt.Domain_pool.with_pool 2 (fun pool ->
      let members = min (Fsc_rt.Domain_pool.size pool) 4 in
      let barriers_of f =
        let before = Fsc_obs.Obs.counter_value barriers in
        f ();
        Fsc_obs.Obs.counter_value barriers - before
      in
      let t = DX.create ~pool d ~fields:[ "u"; "unew" ] ~init:gs_init_fields in
      Alcotest.(check int) "swap set: members x (2k - 1) barriers"
        (members * ((2 * k) - 1))
        (barriers_of (fun () -> gs_iterate t ~iters:k));
      Alcotest.(check (float 0.)) "swap set: bitwise serial" 0.0
        (max_interior_diff ~nx ~ny ~nz serial.V.g_buf (DX.gather t "u"));
      let t = DX.create ~pool d ~fields:[ "u" ] ~init:gs_init_fields in
      let calls = Array.make 4 0 in
      Alcotest.(check int) "swap-free: members x (k - 1) barriers"
        (members * (k - 1))
        (barriers_of (fun () ->
             DX.iterate t ~iters:k ~swap_fields:[] ~compute:(fun ~rank ->
                 calls.(rank) <- calls.(rank) + 1)));
      Alcotest.(check (array int)) "swap-free: one compute per superstep"
        (Array.make 4 k) calls;
      Alcotest.(check int) "swap-free: no messages" 0 (fst (DX.stats t)))

(* Interior halo planes must never overwrite owner cells in a gather:
   scribble a sentinel into every interior halo, gather, and check no
   sentinel leaked into the global grid (regression for gather reading
   stale neighbour planes as if owned). *)
let test_gather_staleness () =
  let nx, ny, nz = (4, 6, 6) in
  let d = D.create ~global:(nx, ny, nz) ~ranks:4 in
  let init _ (i, j, k) = float_of_int ((100 * i) + (10 * j) + k) in
  let t = DX.create d ~fields:[ "u" ] ~init in
  let sentinel = -999.0 in
  Array.iter
    (fun st ->
      let (_, _), (yl, yh), (zl, zh) = st.DX.rs_range in
      let buf = DX.field st "u" in
      let dims = buf.Rt.dims in
      (* poison only *interior* halos (the ones owned by a neighbour) *)
      if yl > 1 then
        for k = 0 to dims.(2) - 1 do
          for i = 0 to dims.(0) - 1 do
            Rt.set buf [| i; 0; k |] sentinel
          done
        done;
      if yh < ny then
        for k = 0 to dims.(2) - 1 do
          for i = 0 to dims.(0) - 1 do
            Rt.set buf [| i; dims.(1) - 1; k |] sentinel
          done
        done;
      if zl > 1 then
        for j = 0 to dims.(1) - 1 do
          for i = 0 to dims.(0) - 1 do
            Rt.set buf [| i; j; 0 |] sentinel
          done
        done;
      if zh < nz then
        for j = 0 to dims.(1) - 1 do
          for i = 0 to dims.(0) - 1 do
            Rt.set buf [| i; j; dims.(2) - 1 |] sentinel
          done
        done)
    t.DX.ranks;
  let g = DX.gather t "u" in
  for k = 0 to nz + 1 do
    for j = 0 to ny + 1 do
      for i = 0 to nx + 1 do
        if Rt.get g [| i; j; k |] = sentinel then
          Alcotest.failf "stale halo leaked into gather at (%d,%d,%d)" i j
            k
      done
    done
  done

(* ---- IR-level DMP/MPI lowerings ---- *)

let stencil_module () =
  Fsc_core.Extraction.reset_name_counter ();
  let m =
    Fsc_fortran.Flower.compile_source
      (Fsc_driver.Benchmarks.gauss_seidel ~nx:6 ~ny:6 ~nz:6 ~niter:1 ())
  in
  ignore (Fsc_core.Discovery.run m);
  ignore (Fsc_core.Merge.run m);
  (Fsc_core.Extraction.run m).Fsc_core.Extraction.stencil_module

let count name m =
  List.length (Op.collect_ops (fun o -> o.Op.o_name = name) m)

let test_stencil_to_dmp () =
  let sm = stencil_module () in
  let swaps = Fsc_dmp.Stencil_to_dmp.run sm in
  (* the sweep apply reads u with halo 1 in both decomposed dims; the
     copy-back apply has offsets 0 so no swap; the init kernel has no
     reads at all *)
  Alcotest.(check int) "one swap inserted" 1 swaps;
  let swap = List.hd (Op.collect_ops (fun o -> o.Op.o_name = "dmp.swap") sm) in
  Alcotest.(check (list int)) "halo widths" [ 1; 1; 1 ]
    (Fsc_dmp.Dmp_dialect.swap_halo swap)

let test_dmp_to_mpi () =
  let sm = stencil_module () in
  ignore (Fsc_dmp.Stencil_to_dmp.run sm);
  let lowered = Fsc_dmp.Dmp_to_mpi.run sm in
  Alcotest.(check int) "one swap lowered" 1 lowered;
  Alcotest.(check int) "no dmp left" 0 (count "dmp.swap" sm);
  (* 2 decomposed dims x 2 directions of isend+irecv, one waitall *)
  Alcotest.(check int) "isends" 4 (count "mpi.isend" sm);
  Alcotest.(check int) "irecvs" 4 (count "mpi.irecv" sm);
  Alcotest.(check int) "waitall" 1 (count "mpi.waitall" sm)

(* ---- full pipeline: dist target vs serial, bitwise ---- *)

module P = Fsc_driver.Pipeline
module B = Fsc_driver.Benchmarks

let run_pipeline_stats ~engine ~target ~grid src =
  let a, _ = P.stencil ~target ~engine src in
  P.run a;
  let b = P.buffer_exn a grid in
  (* copy out: the artifact owns the bigarray *)
  let n = Bigarray.Array1.dim b.Rt.data in
  let out = Array.init n (fun i -> Bigarray.Array1.unsafe_get b.Rt.data i) in
  let stats = Option.map Fsc_dmp.Dist_kernel.stats a.P.a_dist in
  P.shutdown a;
  (out, stats)

let run_pipeline ~engine ~target ~grid src =
  fst (run_pipeline_stats ~engine ~target ~grid src)

let check_bitwise ~msg serial dist =
  Alcotest.(check int) (msg ^ ": size") (Array.length serial)
    (Array.length dist);
  Array.iteri
    (fun i v ->
      if not (Float.equal v dist.(i)) then
        Alcotest.failf "%s: cell %d differs: serial %.17g dist %.17g" msg i
          v dist.(i))
    serial

let group_msgs = function
  | Some s ->
    List.fold_left
      (fun a g -> a + g.Fsc_dmp.Dist_kernel.gs_msgs)
      0 s.Fsc_dmp.Dist_kernel.ds_groups
  | None -> 0

(* Every rank count / engine must reproduce the serial answer bit for
   bit — the distributed lowering is a pure execution strategy, never a
   numerics change. Gauss-Seidel rewrites u every sweep, so each of the
   four iterations pays one coalesced exchange: one message per
   neighbour link (2, 4 and 20 links at 2, 3 and 8 ranks). *)
let test_pipeline_dist_gs () =
  let src = B.gauss_seidel ~nx:8 ~ny:8 ~nz:8 ~niter:4 () in
  let serial =
    run_pipeline ~engine:P.Engine_vector ~target:P.Serial ~grid:"u" src
  in
  List.iter
    (fun (ranks, msgs) ->
      let dist, stats =
        run_pipeline_stats ~engine:P.Engine_vector ~target:(P.Dist ranks)
          ~grid:"u" src
      in
      let label = Printf.sprintf "gs ranks=%d" ranks in
      check_bitwise ~msg:label serial dist;
      Alcotest.(check int) (label ^ ": halo messages") msgs
        (group_msgs stats))
    [ (1, 0); (2, 8); (3, 16); (8, 80) ];
  (* the other engines at one representative rank count *)
  List.iter
    (fun (ename, engine) ->
      let dist =
        run_pipeline ~engine ~target:(P.Dist 4) ~grid:"u" src
      in
      check_bitwise ~msg:("gs engine=" ^ ename) serial dist)
    [ ("closure", P.Engine_closure); ("interp", P.Engine_interp) ]

let test_pipeline_dist_pw () =
  let src = B.pw_advection ~nx:8 ~ny:8 ~nz:8 ~niter:3 () in
  List.iter
    (fun grid ->
      let serial =
        run_pipeline ~engine:P.Engine_vector ~target:P.Serial ~grid src
      in
      List.iter
        (fun ranks ->
          let dist =
            run_pipeline ~engine:P.Engine_vector ~target:(P.Dist ranks)
              ~grid src
          in
          check_bitwise
            ~msg:(Printf.sprintf "pw %s ranks=%d" grid ranks)
            serial dist)
        [ 2; 6 ])
    [ "u"; "su" ]

(* Superstep fusion and coalescing are pure traffic optimisations: the
   schedule must reproduce the serial answer bit for bit. On a
   residual-style kernel that reads u at offsets but never writes it,
   every superstep after the first fuses: 4 ranks have 8 neighbour
   links, so the three supersteps move 8 messages where an unfused
   schedule would move 24. On Gauss-Seidel fusion must never fire (each
   sweep rewrites u, so the per-iteration exchange is semantically
   required): 3 exchanges x 8 links. A swap set of one field coalesces
   to the same one message per link. *)
let test_pipeline_dist_fusion () =
  let residual_src =
    {|
program residual_probe
  implicit none
  integer, parameter :: nx = 6, ny = 6, nz = 6, niter = 3
  integer :: i, j, k, iter
  real(kind=8), dimension(0:nx+1, 0:ny+1, 0:nz+1) :: u, r

  do k = 0, nz + 1
    do j = 0, ny + 1
      do i = 0, nx + 1
        u(i, j, k) = 0.01d0 * dble(i) * dble(i) &
                   + 0.02d0 * dble(j) * dble(k) + 0.03d0 * dble(k)
        r(i, j, k) = 0.0d0
      end do
    end do
  end do

  do iter = 1, niter
    do k = 1, nz
      do j = 1, ny
        do i = 1, nx
          r(i, j, k) = u(i, j, k) - (u(i-1, j, k) + u(i+1, j, k) &
                     + u(i, j-1, k) + u(i, j+1, k) + u(i, j, k-1) &
                     + u(i, j, k+1)) / 6.0d0
        end do
      end do
    end do
  end do
end program residual_probe
|}
  in
  let module Dk = Fsc_dmp.Dist_kernel in
  let check_schedule ~label ~grid ~msgs ~fused src =
    let serial =
      run_pipeline ~engine:P.Engine_vector ~target:P.Serial ~grid src
    in
    let dist, stats =
      run_pipeline_stats ~engine:P.Engine_vector ~target:(P.Dist 4) ~grid
        src
    in
    check_bitwise ~msg:label serial dist;
    Alcotest.(check int) (label ^ ": halo messages") msgs (group_msgs stats);
    match stats with
    | Some s ->
      Alcotest.(check int) (label ^ ": fused stages") fused
        s.Dk.ds_fused_stages
    | None -> Alcotest.fail (label ^ ": no dist state")
  in
  check_schedule ~label:"residual" ~grid:"r" ~msgs:8 ~fused:2 residual_src;
  check_schedule ~label:"gs" ~grid:"u" ~msgs:24 ~fused:0
    (B.gauss_seidel ~nx:8 ~ny:8 ~nz:8 ~niter:3 ())

(* Mirror planes on an asymmetric decomposition: global (8,7,5) over 6
   ranks splits y 4+3 and z 2+2+1, so the block-boundary planes are
   exactly y in {4,5} and z in {2,3,4,5}. *)
let test_mirror_planes_asymmetric () =
  let module Dk = Fsc_dmp.Dist_kernel in
  let d = D.create ~global:(8, 7, 5) ~ranks:6 in
  let ys, zs = Dk.mirror_planes d in
  Alcotest.(check (list int)) "y planes" [ 4; 5 ] ys;
  Alcotest.(check (list int)) "z planes" [ 2; 3; 4; 5 ] zs;
  (* a single rank has no internal boundaries: nothing ever stales *)
  let ys1, zs1 = Dk.mirror_planes (D.create ~global:(8, 7, 5) ~ranks:1) in
  Alcotest.(check (list int)) "1 rank: no y planes" [] ys1;
  Alcotest.(check (list int)) "1 rank: no z planes" [] zs1;
  let module F = Fsc_analysis.Footprint in
  let planes = (ys, zs) in
  let ddims = [ 1; 2 ] in
  (* an edge write off every mirrored plane keeps halos fresh *)
  Alcotest.(check bool) "edge write does not stale" false
    (Dk.write_stales ~ddims ~planes
       [ F.range 1 8; F.range 1 1; F.range 1 1 ]);
  (* touching one mirrored plane in one decomposed dim is enough *)
  Alcotest.(check bool) "plane write stales" true
    (Dk.write_stales ~ddims ~planes
       [ F.range 1 8; F.range 4 4; F.range 1 1 ]);
  Alcotest.(check bool) "interior span stales" true
    (Dk.write_stales ~ddims ~planes
       [ F.range 1 8; F.range 1 7; F.range 1 5 ]);
  (* Top is conservatively staling, as is a missing dimension *)
  Alcotest.(check bool) "top stales" true
    (Dk.write_stales ~ddims ~planes [ F.range 1 8; F.Top; F.range 1 1 ]);
  Alcotest.(check bool) "short region stales" true
    (Dk.write_stales ~ddims ~planes [ F.range 1 8 ]);
  (* with no planes at all (1 rank) nothing can stale *)
  Alcotest.(check bool) "no planes, top write" false
    (Dk.write_stales ~ddims ~planes:([], []) [ F.Top; F.Top; F.Top ])

(* Footprint-aware staling is a pure traffic optimisation: the
   residual+edge-probe program must reproduce the serial answer bit for
   bit at every rank count. The probe's off-plane writes avoid stales
   (8 at one rank, where no plane is mirrored; 3 otherwise), so u's
   halos stay fresh and only the first of the three supersteps
   exchanges: 2 and 20 messages at 2 and 8 ranks, where whole-field
   staling would pay 6 and 60. *)
let test_pipeline_footprint_staling () =
  let module Dk = Fsc_dmp.Dist_kernel in
  let src =
    {|
program residual_probe
  implicit none
  integer, parameter :: nx = 12, ny = 12, nz = 12, niter = 3
  integer :: i, j, k, iter
  real(kind=8), dimension(0:nx+1, 0:ny+1, 0:nz+1) :: u, r

  do k = 0, nz + 1
    do j = 0, ny + 1
      do i = 0, nx + 1
        u(i, j, k) = 0.01d0 * dble(i) * dble(i) &
                   + 0.02d0 * dble(j) * dble(k) + 0.03d0 * dble(k)
        r(i, j, k) = 0.0d0
      end do
    end do
  end do

  do iter = 1, niter
    do k = 1, nz
      do j = 1, ny
        do i = 1, nx
          r(i, j, k) = u(i, j, k) - (u(i-1, j, k) + u(i+1, j, k) &
                     + u(i, j-1, k) + u(i, j+1, k) + u(i, j, k-1) &
                     + u(i, j, k+1)) / 6.0d0
        end do
      end do
    end do
    do k = 1, 1
      do j = 1, 1
        do i = 1, nx
          u(i, j, k) = u(i, j, k) + 0.25d0 * r(i, j, k)
        end do
      end do
    end do
  end do
end program residual_probe
|}
  in
  List.iter
    (fun grid ->
      let serial =
        run_pipeline ~engine:P.Engine_vector ~target:P.Serial ~grid src
      in
      List.iter
        (fun (ranks, msgs, avoided) ->
          let dist, stats =
            run_pipeline_stats ~engine:P.Engine_vector
              ~target:(P.Dist ranks) ~grid src
          in
          let label = Printf.sprintf "probe %s ranks=%d" grid ranks in
          check_bitwise ~msg:label serial dist;
          Alcotest.(check int) (label ^ ": halo messages") msgs
            (group_msgs stats);
          match stats with
          | Some s ->
            Alcotest.(check int) (label ^ ": stales avoided") avoided
              s.Dk.ds_stales_avoided
          | None -> Alcotest.fail (label ^ ": no dist state"))
        [ (1, 0, 8); (2, 2, 3); (8, 20, 3) ])
    [ "r"; "u" ]

(* [dmp.fallbacks] counts exactly the kernel runs that went to the
   host: none for the residual example at 4 ranks (every stage
   distributes, exchanged or fused), and one per run for a kernel
   reading two planes away in a decomposed dimension (beyond the
   one-cell halo) and for one reading diagonally across both decomposed
   dimensions (a corner halo cell the face exchange does not carry),
   matching [ds_fallback_runs] in every case. *)
let test_pipeline_dist_fallbacks () =
  let module Dk = Fsc_dmp.Dist_kernel in
  let wide_src =
    {|
program wide_stencil
  implicit none
  integer, parameter :: nx = 6, ny = 8, nz = 8
  integer :: i, j, k
  real(kind=8), dimension(0:nx+1, 0:ny+1, 0:nz+1) :: u, r

  do k = 0, nz + 1
    do j = 0, ny + 1
      do i = 0, nx + 1
        u(i, j, k) = 0.01d0 * dble(i) + 0.02d0 * dble(j) + 0.03d0 * dble(k)
        r(i, j, k) = 0.0d0
      end do
    end do
  end do

  do k = 1, nz
    do j = 2, ny - 1
      do i = 1, nx
        r(i, j, k) = u(i, j-2, k) + u(i, j+2, k)
      end do
    end do
  end do
end program wide_stencil
|}
  in
  let corner_src =
    {|
program corner_stencil
  implicit none
  integer, parameter :: nx = 6, ny = 8, nz = 8
  integer :: i, j, k
  real(kind=8), dimension(0:nx+1, 0:ny+1, 0:nz+1) :: u, r

  do k = 0, nz + 1
    do j = 0, ny + 1
      do i = 0, nx + 1
        u(i, j, k) = 0.01d0 * dble(i) + 0.02d0 * dble(j) * dble(k)
        r(i, j, k) = 0.0d0
      end do
    end do
  end do

  do k = 1, nz
    do j = 1, ny
      do i = 1, nx
        r(i, j, k) = u(i, j+1, k-1) + u(i, j-1, k+1)
      end do
    end do
  end do
end program corner_stencil
|}
  in
  let fallbacks = Fsc_obs.Obs.counter "dmp.fallbacks" in
  with_counters @@ fun () ->
  let host_runs ~label ~grid src =
    let serial =
      run_pipeline ~engine:P.Engine_vector ~target:P.Serial ~grid src
    in
    let before = Fsc_obs.Obs.counter_value fallbacks in
    let dist, stats =
      run_pipeline_stats ~engine:P.Engine_vector ~target:(P.Dist 4) ~grid
        src
    in
    let counted = Fsc_obs.Obs.counter_value fallbacks - before in
    check_bitwise ~msg:label serial dist;
    match stats with
    | Some s ->
      Alcotest.(check int) (label ^ ": dmp.fallbacks = ds_fallback_runs")
        s.Dk.ds_fallback_runs counted;
      counted
    | None -> Alcotest.failf "%s: no dist state" label
  in
  Alcotest.(check int) "residual: no host fallbacks" 0
    (host_runs ~label:"residual" ~grid:"u" (B.residual ()));
  Alcotest.(check bool) "wide stencil: runs on the host" true
    (host_runs ~label:"wide" ~grid:"r" wide_src > 0);
  Alcotest.(check bool) "corner stencil: runs on the host" true
    (host_runs ~label:"corner" ~grid:"r" corner_src > 0)

(* A grid too small for the rank count must fail with the located
   decomposition diagnostic, not a degenerate layout or a crash. *)
let test_pipeline_dist_degenerate () =
  let src = B.gauss_seidel ~nx:8 ~ny:8 ~nz:8 ~niter:2 () in
  let a, _ =
    P.stencil ~target:(P.Dist 1000) ~engine:P.Engine_vector src
  in
  (match P.run a with
  | () -> Alcotest.fail "expected Invalid_decomp for 1000 ranks on 8^3"
  | exception Fsc_dmp.Decomp.Invalid_decomp d ->
    Alcotest.(check string) "diag code" "decomp"
      d.Fsc_analysis.Diag.d_code);
  P.shutdown a

let () =
  Alcotest.run "dmp"
    [ ("decomposition",
       [ Alcotest.test_case "factorize" `Quick test_factorize;
         Alcotest.test_case "local ranges" `Quick test_local_ranges;
         Alcotest.test_case "neighbors" `Quick test_neighbors;
         Alcotest.test_case "invalid decompositions rejected" `Quick
           test_decomp_rejects;
         Alcotest.test_case "fit-aware process grid" `Quick
           test_decomp_fit_aware;
         QCheck_alcotest.to_alcotest prop_partition;
         QCheck_alcotest.to_alcotest prop_split_covers ]);
      ("mpi",
       [ Alcotest.test_case "endpoint validation" `Quick
           test_mpi_validation ]);
      ("execution",
       [ Alcotest.test_case "halo exchange" `Quick test_halo_exchange;
         Alcotest.test_case "coalesced payload round trip" `Quick
           test_coalesced_roundtrip;
         Alcotest.test_case "pooled vs sequential supersteps" `Quick
           test_pooled_supersteps;
         Alcotest.test_case "superstep schedule shape" `Quick
           test_superstep_shape;
         Alcotest.test_case "gather ignores stale halos" `Quick
           test_gather_staleness;
         Alcotest.test_case "distributed GS == serial" `Quick
           test_distributed_gs_equals_serial ]);
      ("pipeline",
       [ Alcotest.test_case "dist target GS == serial (bitwise)" `Quick
           test_pipeline_dist_gs;
         Alcotest.test_case "dist target PW == serial (bitwise)" `Quick
           test_pipeline_dist_pw;
         Alcotest.test_case "fusion/coalescing ablation (bitwise)" `Quick
           test_pipeline_dist_fusion;
         Alcotest.test_case "mirror planes (asymmetric decomp)" `Quick
           test_mirror_planes_asymmetric;
         Alcotest.test_case "footprint staling ablation (bitwise)" `Quick
           test_pipeline_footprint_staling;
         Alcotest.test_case "host fallbacks counted once" `Quick
           test_pipeline_dist_fallbacks;
         Alcotest.test_case "degenerate decomposition diagnosed" `Quick
           test_pipeline_dist_degenerate ]);
      ("dialect",
       [ Alcotest.test_case "stencil -> dmp" `Quick test_stencil_to_dmp;
         Alcotest.test_case "dmp -> mpi" `Quick test_dmp_to_mpi ]) ]
