(* Benchmark harness: regenerates every figure of the paper's evaluation
   (Section 4) and runs Bechamel micro-benchmarks over the substrate's
   execution tiers.

   For each figure the harness prints:
   - MEASURED rows: real executions of this repository's pipelines
     (interpreter / compiled stencil kernels / vendor kernels, simulated
     GPU clock, simulated MPI) at container-friendly problem sizes;
   - MODEL rows: the calibrated ARCHER2/V100/Slingshot machine models at
     the paper's problem sizes, which is where the figure *shapes* (who
     wins, crossovers) are reproduced. EXPERIMENTS.md records the
     paper-vs-ours comparison.

   It also writes the two committed trajectory files, BENCH_kernels.json
   (execution engines) and BENCH_dmp.json (distributed scaling), each
   gated on its own claims: any violation exits 1.

   Usage:  main.exe [--figure N]... [--quick] [--no-bechamel]
           main.exe --kernels-only [--quick]   (BENCH_kernels.json only)
           main.exe --dist [--quick]           (BENCH_dmp.json only) *)

module P = Fsc_driver.Pipeline
module B = Fsc_driver.Benchmarks
module Rt = Fsc_rt.Memref_rt
module V = Fsc_rt.Vendor_kernels
module C = Fsc_perf.Cpu_model
module G = Fsc_perf.Gpu_model
module N = Fsc_perf.Net_model
module Cal = Fsc_perf.Calibrate
module J = Fsc_obs.Obs.Json

let quick = ref false
let figures = ref []
let run_bechamel = ref true
let kernels_only = ref false
let dist_only = ref false

(* Unknown flags and malformed values print the usage and exit 2: a typo
   must not silently run the whole multi-minute suite. *)
let () =
  let figure n =
    if n < 2 || n > 6 then
      raise (Arg.Bad (Printf.sprintf "no figure %d (figures are 2-6)" n));
    figures := n :: !figures
  in
  Arg.parse
    [ ("--figure", Arg.Int figure, "N  regenerate figure N only (2-6)");
      ("--quick", Arg.Set quick, " smaller grids, shorter windows");
      ("--no-bechamel", Arg.Clear run_bechamel, " skip the Bechamel suite");
      ("--kernels-only", Arg.Set kernels_only,
       " write BENCH_kernels.json and exit");
      ("--dist", Arg.Set dist_only, " write BENCH_dmp.json and exit") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "Usage: main.exe [--figure N]... [--quick] [--no-bechamel] \
     [--kernels-only | --dist]"

let want fig = !figures = [] || List.mem fig !figures

let write_json path json =
  let oc = open_out path in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc

(* Gate violations of the BENCH_*.json writers: each writer records its
   failures, still writes its file, then exits 1 if any were recorded. *)
let failures = ref []
let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt

let exit_on_failures () =
  if !failures <> [] then begin
    List.iter (Printf.eprintf "FAIL %s\n") (List.rev !failures);
    exit 1
  end

(* Private plugin caches for the native tier, so every build is cold and
   attributable to this run: one temporary root, removed at exit. *)
let plugin_root =
  lazy
    (let root = Filename.temp_dir "sfc-bench-" "" in
     let rec remove path =
       if Sys.is_directory path then begin
         Array.iter (fun f -> remove (Filename.concat path f))
           (Sys.readdir path);
         Sys.rmdir path
       end
       else Sys.remove path
     in
     at_exit (fun () -> try remove root with Sys_error _ -> ());
     root)

let native_ctx name =
  let module Nt = Fsc_codegen.Native in
  Nt.create
    ~cache:
      (Fsc_cache.Cache.create
         ~dir:(Filename.concat (Lazy.force plugin_root) name)
         ~version:Nt.format_version ())
    ~mode:Nt.Sync ()

(* ------------------------------------------------------------------ *)
(* Execution-engine comparison: BENCH_kernels.json                     *)
(* ------------------------------------------------------------------ *)

(* The four kernel execution tiers (interp / closure / vector / native)
   on the row-friendly benchmarks. Closure, vector and native run on the
   same compiled artifact (same grids) so the ratio isolates the engine;
   the interpreter runs on a much smaller grid, like figure2_measured,
   and its ratio is a tier gap rather than a same-size speedup. The
   native tier builds Sync into a fresh private cache: the first run
   pays the cold ocamlopt compile — recorded separately as
   [cold_build_ms] — and the measured windows then see only the plugin's
   steady-state throughput. The closure/vector/native grids must be
   bitwise identical, and neither vector (vs closure) nor native (vs
   vector) may lose to the tier below — any failure exits nonzero,
   which is what ci.sh asserts. Without an ocamlopt toolchain the native
   column is skipped with a notice and the gate does not apply. *)
let write_kernels_json () =
  let module Nt = Fsc_codegen.Native in
  let min_seconds = if !quick then 0.1 else 0.2 in
  let n_gs = if !quick then 32 else 48 in
  let n_lp = if !quick then 96 else 128 in
  let n_small = if !quick then 8 else 12 in
  (* enough timesteps that per-run fixed costs (allocation, host
     interpretation) amortise against kernel execution *)
  let iters = if !quick then 6 else 10 in
  let gs n = B.gauss_seidel ~nx:n ~ny:n ~nz:n ~niter:iters () in
  let cube n = float_of_int (n * n * n * iters) in
  let size3 = Printf.sprintf "%d^3 x%d" n_gs iters in
  let size2 = Printf.sprintf "%d^2 x%d" n_lp iters in
  let lp_cells = float_of_int (n_lp * n_lp * iters) in
  let toolchain = Nt.toolchain_error (native_ctx "probe") in
  (* best of three windows: the mean of one window is hostage to
     scheduler noise in a shared container; the fastest window is the
     engine's actual throughput *)
  let measure ~label a cells_per_iter =
    let windows =
      List.init 3 (fun _ ->
          Cal.measure ~label ~cells_per_iter ~min_seconds (fun () ->
              P.run a))
    in
    List.fold_left
      (fun best m -> if Cal.mcells m > Cal.mcells best then m else best)
      (List.hd windows) (List.tl windows)
  in
  let check_bitwise ~what ~grid reference a =
    let diff =
      Rt.max_abs_diff (P.buffer_exn reference grid) (P.buffer_exn a grid)
    in
    if diff <> 0.0 then fail "%s grids differ by %g" what diff
  in
  let native_reports a =
    List.filter_map
      (fun (_, impl) ->
        match impl with
        | P.Native_jit (_, nk) -> Some (nk, Nt.report nk)
        | _ -> None)
      a.P.a_kernels
  in
  let engines (bname, src, cells, size, src_small, cells_small, grid) =
    (* one compile, three links: the engine is link-time state *)
    let ca = P.compile (P.default_options ~target:P.Serial ()) src in
    let a_interp, _ =
      P.stencil ~target:P.Serial ~engine:P.Engine_interp src_small
    in
    let m_interp =
      measure ~label:(bname ^ "  interp (FIR interpreter)") a_interp
        cells_small
    in
    let a_closure = P.link ~engine:P.Engine_closure ca in
    let m_closure =
      measure ~label:(bname ^ "  closure (per-cell JIT)") a_closure cells
    in
    let a_vector = P.link ~engine:P.Engine_vector ca in
    let m_vector =
      measure ~label:(bname ^ "  vector (row bytecode)") a_vector cells
    in
    let native =
      match toolchain with
      | Some why ->
        Printf.printf "  %s: native tier skipped (%s)\n" bname why;
        None
      | None ->
        let a =
          P.link ~engine:P.Engine_native ~native:(native_ctx bname) ca
        in
        (* the first run binds and compiles inline (Sync): after it,
           the per-kernel reports carry the cold build cost *)
        P.run a;
        let build_ms =
          List.fold_left
            (fun acc (nk, r) ->
              Printf.printf "    %s: %s\n" (Nt.name nk) (Nt.describe nk);
              acc +. Option.value r.Nt.rp_build_ms ~default:0.)
            0. (native_reports a)
        in
        let m = measure ~label:(bname ^ "  native (compiled plugin)") a cells in
        Some (a, m, build_ms)
    in
    print_endline
      (Cal.report
         ([ m_interp; m_closure; m_vector ]
         @ match native with Some (_, m, _) -> [ m ] | None -> []));
    (* bitwise agreement on the full grid across the compiled tiers *)
    check_bitwise ~what:(bname ^ ": closure/vector") ~grid a_closure a_vector;
    Option.iter
      (fun (a, _, _) ->
        check_bitwise ~what:(bname ^ ": closure/native") ~grid a_closure a)
      native;
    (* per-nest vectorisation coverage for the record *)
    let vec_nests, nests =
      List.fold_left
        (fun (v, n) (_, impl) ->
          match impl with
          | P.Vectorised (_, plan) ->
            let module Kb = Fsc_rt.Kernel_bytecode in
            (v + Kb.vectorised_nests plan, n + Kb.nest_count plan)
          | _ -> (v, n))
        (0, 0) a_vector.P.a_kernels
    in
    List.iter P.shutdown [ a_closure; a_vector; a_interp ];
    Option.iter (fun (a, _, _) -> P.shutdown a) native;
    let point ?(extra = []) engine m cells_note =
      J.Obj
        ([ ("benchmark", J.Str bname); ("engine", J.Str engine);
           ("size", J.Str cells_note);
           ("mcells_per_s", J.Num (Cal.mcells m)) ]
        @ extra)
    in
    let series =
      [ point "interp" m_interp (Printf.sprintf "%.0f cells" cells_small);
        point "closure" m_closure size; point "vector" m_vector size ]
      @
      match native with
      | Some (_, m, build_ms) ->
        [ point ~extra:[ ("cold_build_ms", J.Num build_ms) ] "native" m size ]
      | None -> []
    in
    let v_over_c = Cal.mcells m_vector /. Cal.mcells m_closure in
    if v_over_c < 1.0 then
      fail "%s: vector engine slower than closure (%.2fx)" bname v_over_c;
    let native_fields =
      match native with
      | None -> []
      | Some (_, m, build_ms) ->
        let n_over_v = Cal.mcells m /. Cal.mcells m_vector in
        if n_over_v < 1.0 then
          fail "%s: native engine slower than vector (%.2fx)" bname n_over_v;
        Printf.printf "  %s: native/vector %.2fx (cold build %.1f ms)\n"
          bname n_over_v build_ms;
        [ ("native_over_vector", J.Num n_over_v);
          ("native_cold_build_ms", J.Num build_ms) ]
    in
    let c_over_i = Cal.mcells m_closure /. Cal.mcells m_interp in
    Printf.printf
      "  %s: vector/closure %.2fx, closure/interp tier gap %.0fx (%d/%d \
       nests vectorised)\n"
      bname v_over_c c_over_i vec_nests nests;
    ( series,
      J.Obj
        ([ ("benchmark", J.Str bname);
           ("vector_over_closure", J.Num v_over_c);
           ("closure_over_interp", J.Num c_over_i);
           ("vectorised_nests", J.Num (float_of_int vec_nests));
           ("nests", J.Num (float_of_int nests)) ]
        @ native_fields) )
  in
  let results =
    List.map engines
      [ (* name, fast source + cells, interp source + cells, checked grid *)
        ("gauss-seidel", gs n_gs, cube n_gs, size3, gs n_small,
         cube n_small, "u");
        ("laplace", B.laplace ~n:n_lp ~niter:iters (), lp_cells, size2,
         B.laplace ~n:n_small ~niter:iters (),
         float_of_int (n_small * n_small * iters), "phi") ]
  in
  let series = List.concat_map fst results in
  (* scheduling: the native tier's emit-time transforms, serial and
     pooled, each point bitwise identical to the closure engine (the
     fusion each stencil exhibits is pinned by test_codegen's default
     schedule table). The pooled point is an OpenMP compile of the same
     program, so emitted parallel levels dispatch through the in-plugin
     pool. *)
  let scheduling (bname, src, cells, size, grid) =
    let a_closure =
      P.link ~engine:P.Engine_closure
        (P.compile (P.default_options ~target:P.Serial ()) src)
    in
    P.run a_closure;
    (* one native link per point, each into its own fresh Sync cache;
       the first run binds and compiles inline *)
    let point cname target =
      let a =
        P.link ~engine:P.Engine_native
          ~native:(native_ctx (bname ^ "-" ^ cname))
          (P.compile (P.default_options ~target ()) src)
      in
      P.run a;
      let reports = List.map snd (native_reports a) in
      let sum f =
        float_of_int (List.fold_left (fun n r -> n + f r) 0 reports)
      in
      Printf.printf "    %s/%s: %s\n" bname cname
        (String.concat " | " (List.map (fun r -> r.Nt.rp_detail) reports));
      let m = measure ~label:(Printf.sprintf "%s  %s" bname cname) a cells in
      check_bitwise ~what:(Printf.sprintf "%s/%s: closure/native" bname cname)
        ~grid a_closure a;
      P.shutdown a;
      J.Obj
        ([ ("benchmark", J.Str bname); ("config", J.Str cname);
           ("size", J.Str size); ("mcells_per_s", J.Num (Cal.mcells m));
           ("fused_nests", J.Num (sum (fun r -> r.Nt.rp_fused_nests)));
           ("reuse_windows", J.Num (sum (fun r -> r.Nt.rp_reuse_windows)));
           ("copy_blits", J.Num (sum (fun r -> r.Nt.rp_copy_blits))) ]
        @
        match target with
        | P.Openmp _ ->
          let par_mode =
            List.find_map (fun r -> r.Nt.rp_par_mode) (List.rev reports)
          in
          [ ("par_mode", J.Str (Option.value par_mode ~default:"unknown")) ]
        | _ -> [])
    in
    let serial = point "native_v2" P.Serial in
    let pooled = point "native_v2_pool2" (P.Openmp 2) in
    P.shutdown a_closure;
    [ serial; pooled ]
  in
  let scheduling =
    match toolchain with
    | Some why ->
      Printf.printf "  scheduling skipped (%s)\n" why;
      []
    | None ->
      List.concat_map scheduling
        [ ("gauss-seidel", gs n_gs, cube n_gs, size3, "u");
          ("laplace", B.laplace ~n:n_lp ~niter:iters (), lp_cells, size2,
           "phi");
          ("smooth", B.smooth ~nx:n_gs ~ny:n_gs ~nz:n_gs ~niter:iters (),
           cube n_gs, size3, "d") ]
  in
  let path = "BENCH_kernels.json" in
  write_json path
    (J.Obj
       [ ("setup",
          J.Str
            (Printf.sprintf
               "serial, engines on identical compiled artifacts; interp \
                tier on %d-sized grids; min %.1fs per measurement"
               n_small min_seconds));
         ("series", J.List series); ("speedups", J.List (List.map snd results));
         ("scheduling", J.List scheduling) ]);
  Printf.printf "kernel engine timings written to %s (%d series points)\n"
    path (List.length series);
  exit_on_failures ()

(* ------------------------------------------------------------------ *)
(* Distributed backend scaling: BENCH_dmp.json                         *)
(* ------------------------------------------------------------------ *)

(* The Figure-6 counterpart for the real distributed backend: strong and
   weak scaling of the full pipeline at `--target dist` (concurrent
   ranks, vector engine per rank), measured halo traffic beside the
   ARCHER2 model's projection — with the model curve extended past the
   measurable rank counts to 128 simulated ranks — and per-rank
   vector-engine utilisation. Gated: a multi-rank point without halo
   messages, a rank set that never used the vector engine, or a measured
   8-rank throughput below the stated factor of the model exits nonzero
   so CI can gate on it. *)
let write_dmp_json () =
  let module Dk = Fsc_dmp.Dist_kernel in
  let n = if !quick then 12 else 16 in
  let iters = if !quick then 4 else 8 in
  let reps = if !quick then 3 else 5 in
  (* Best-of-[reps] wall clock of [P.run] on one linked artifact, with
     one untimed warm-up run first (pool spin-up, scatter-group and
     runner compilation) so warm-up traffic and time never reach the
     report. Group stats reset at every [P.run] (buffers are reallocated
     per run), so snapshotting them right after a rep yields exactly
     that rep's halo traffic; we keep the snapshot belonging to the rep
     whose time we report. *)
  let best_run_s a =
    P.run a;
    let best = ref infinity in
    let best_stats = ref None in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      P.run a;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then begin
        best := dt;
        best_stats := Option.map Dk.stats a.P.a_dist
      end
    done;
    (!best, !best_stats)
  in
  let dist_point ~global:(gx, gy, gz) ranks =
    let src = B.gauss_seidel ~nx:gx ~ny:gy ~nz:gz ~niter:iters () in
    let a, _ = P.stencil ~target:(P.Dist ranks) ~engine:P.Engine_vector src in
    let dt, stats = best_run_s a in
    P.shutdown a;
    (float_of_int (gx * gy * gz * iters) /. dt /. 1e6, stats)
  in
  (* strong scaling: fixed global grid, growing rank counts *)
  let rank_list = [ 1; 2; 4; 8 ] in
  let measured_8 = ref 0.0 in
  let strong =
    List.map
      (fun ranks ->
        let mc, stats = dist_point ~global:(n, n, n) ranks in
        if ranks = 8 then measured_8 := mc;
        let msgs, bytes, vec, total =
          match stats with
          | Some s ->
            ( List.fold_left (fun a g -> a + g.Dk.gs_msgs) 0 s.Dk.ds_groups,
              List.fold_left (fun a g -> a + g.Dk.gs_bytes) 0 s.Dk.ds_groups,
              s.Dk.ds_vec_nests, s.Dk.ds_total_nests )
          | None -> (0, 0, 0, 0)
        in
        if ranks > 1 && msgs = 0 then
          fail "strong ranks=%d: no halo messages" ranks;
        if total > 0 && vec = 0 then
          fail "strong ranks=%d: vector engine unused" ranks;
        let model =
          N.mcells ~variant:N.Auto_dmp ~global:(n, n, n) ~ranks ()
        in
        J.Obj
          [ ("ranks", J.Num (float_of_int ranks)); ("mcells", J.Num mc);
            ("halo_msgs", J.Num (float_of_int msgs));
            ("msgs_per_superstep",
             J.Num (float_of_int msgs /. float_of_int iters));
            ("halo_kb", J.Num (float_of_int bytes /. 1024.));
            ("model_mcells", J.Num model);
            ("vec_nests", J.Num (float_of_int vec));
            ("total_nests", J.Num (float_of_int total)) ])
      rank_list
  in
  (* the Figure-6 tail: the ARCHER2 model carries the curve past what
     one machine can execute, out to 128 simulated ranks (a rank count
     whose process grid cannot fit the global face — 128 on the quick
     12x12 — is skipped, not faked) *)
  let projected =
    List.filter_map
      (fun ranks ->
        match
          ( N.mcells ~variant:N.Auto_dmp ~global:(n, n, n) ~ranks (),
            N.mcells ~variant:N.Hand_cray ~global:(n, n, n) ~ranks () )
        with
        | auto, hand ->
          Some
            (J.Obj
               [ ("ranks", J.Num (float_of_int ranks));
                 ("model_mcells", J.Num auto);
                 ("model_hand_mcells", J.Num hand) ])
        | exception Fsc_dmp.Decomp.Invalid_decomp _ -> None)
      [ 8; 16; 32; 64; 128 ]
  in
  (* gate: the measured 8-rank point must land within a stated factor of
     the model's projection — the collapse this file exists to catch *)
  let model_8 = N.mcells ~variant:N.Auto_dmp ~global:(n, n, n) ~ranks:8 () in
  let model_floor = 0.5 in
  if !measured_8 < model_floor *. model_8 then
    fail "strong ranks=8: measured %.1f MCells/s below %.1fx model (%.1f)"
      !measured_8 model_floor model_8;
  (* weak scaling: constant cells per rank (global z grows with ranks) *)
  let weak =
    List.map
      (fun ranks ->
        let global = (n, n, n * ranks) in
        let mc, _ = dist_point ~global ranks in
        J.Obj
          [ ("ranks", J.Num (float_of_int ranks));
            ("global_cells", J.Num (float_of_int (n * n * n * ranks)));
            ("mcells", J.Num mc) ])
      rank_list
  in
  let path = "BENCH_dmp.json" in
  write_json path
    (J.Obj
       [ ("benchmark",
          J.Str (Printf.sprintf "gauss_seidel %d^3 x%d, dist target" n iters));
         ("engine", J.Str "vector");
         ("strong", J.List strong); ("weak", J.List weak);
         ("projected", J.List projected);
         ("model_gate",
          J.Obj
            [ ("ranks", J.Num 8.); ("floor", J.Num model_floor);
              ("measured_mcells", J.Num !measured_8);
              ("model_mcells", J.Num model_8) ]) ]);
  Printf.printf "distributed scaling written to %s (%d strong points)\n" path
    (List.length strong);
  exit_on_failures ()

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let row fmt = Printf.printf fmt

(* ------------------------------------------------------------------ *)
(* Measured substrate numbers                                          *)
(* ------------------------------------------------------------------ *)

let measure_pipeline ~src ~cells_per_run ~label target =
  Cal.measure ~label ~cells_per_iter:cells_per_run
    ~min_seconds:(if !quick then 0.1 else 0.4)
    (fun () ->
      let a, _ = P.stencil ~target src in
      P.run a;
      P.shutdown a)

let measure_flang ~src ~cells_per_run ~label =
  Cal.measure ~label ~cells_per_iter:cells_per_run
    ~min_seconds:(if !quick then 0.1 else 0.4)
    (fun () ->
      let a = P.flang_only src in
      P.run a)

(* measured single-core GS + PW at substrate scale *)
let figure2_measured () =
  let n_jit = if !quick then 32 else 48 in
  let n_interp = if !quick then 12 else 16 in
  let iters = 2 in
  let cells n = float_of_int (n * n * n * iters) in
  Printf.printf
    "\nMEASURED on this machine (substrate tiers; grids %d^3 / %d^3):\n"
    n_jit n_interp;
  (* Gauss-Seidel *)
  let gs_flang =
    measure_flang
      ~src:(B.gauss_seidel ~nx:n_interp ~ny:n_interp ~nz:n_interp
              ~niter:iters ())
      ~cells_per_run:(cells n_interp)
      ~label:"GS  Flang only (FIR interpreter)"
  in
  let gs_st =
    measure_pipeline
      ~src:(B.gauss_seidel ~nx:n_jit ~ny:n_jit ~nz:n_jit ~niter:iters ())
      ~cells_per_run:(cells n_jit)
      ~label:"GS  Stencil (compiled kernels)" P.Serial
  in
  let gs_vendor =
    let u = V.grid3 ~nx:n_jit ~ny:n_jit ~nz:n_jit in
    let unew = V.grid3 ~nx:n_jit ~ny:n_jit ~nz:n_jit in
    V.init_linear u;
    Cal.measure ~label:"GS  Cray-class (vendor kernels)"
      ~cells_per_iter:(cells n_jit)
      ~min_seconds:(if !quick then 0.1 else 0.4)
      (fun () -> V.gs3d_run ~u ~unew ~iters ())
  in
  (* PW advection *)
  let pw_flang =
    measure_flang
      ~src:(B.pw_advection ~nx:n_interp ~ny:n_interp ~nz:n_interp
              ~niter:iters ())
      ~cells_per_run:(cells n_interp)
      ~label:"PW  Flang only (FIR interpreter)"
  in
  let pw_st =
    measure_pipeline
      ~src:(B.pw_advection ~nx:n_jit ~ny:n_jit ~nz:n_jit ~niter:iters ())
      ~cells_per_run:(cells n_jit)
      ~label:"PW  Stencil (compiled kernels)" P.Serial
  in
  let pw_vendor =
    let g () = V.grid3 ~nx:n_jit ~ny:n_jit ~nz:n_jit in
    let u = g () and v = g () and w = g () in
    let su = g () and sv = g () and sw = g () in
    V.init_linear u;
    Cal.measure ~label:"PW  Cray-class (vendor kernels)"
      ~cells_per_iter:(cells n_jit)
      ~min_seconds:(if !quick then 0.1 else 0.4)
      (fun () ->
        for _ = 1 to iters do
          V.pw_advect ~u ~v ~w ~su ~sv ~sw ~rdx:0.1 ~rdy:0.2 ~rdz:0.3 ()
        done)
  in
  print_endline
    (Cal.report [ gs_flang; gs_st; gs_vendor; pw_flang; pw_st; pw_vendor ]);
  Printf.printf
    "  measured substrate tier gap Stencil/Flang: GS %.0fx, PW %.0fx\n\
    \  (the substrate's interpreter-vs-JIT gap exceeds the paper's \
     compiler gap;\n\
    \   the calibrated model above carries the paper-shape factors of \
     ~2x and ~10x)\n"
    (Cal.mcells gs_st /. Cal.mcells gs_flang)
    (Cal.mcells pw_st /. Cal.mcells pw_flang)

(* ------------------------------------------------------------------ *)
(* Figure 2: single-core CPU, three problem sizes                      *)
(* ------------------------------------------------------------------ *)

let figure2 () =
  header "Figure 2: single-core CPU performance (MCells/s)";
  Printf.printf
    "MODEL (ARCHER2 AMD Rome core; paper sizes; shape target: Cray > \
     Stencil > Flang,\n  Stencil ~2x Flang on GS, ~10x on PW):\n\n";
  row "  %-14s %-12s %10s %10s %10s\n" "benchmark" "size" "Cray"
    "Flang only" "Stencil";
  List.iter
    (fun bench ->
      List.iter
        (fun size ->
          let v pipe = C.mcells ~bench ~pipe ~threads:1 () in
          row "  %-14s %-12s %10.1f %10.1f %10.1f\n"
            (C.benchmark_name bench) size (v C.Cray) (v C.Flang_only)
            (v C.Stencil_opt))
        [ "256^3"; "512^3"; "1024^3" ])
    [ C.Gauss_seidel; C.Pw_advection ];
  Printf.printf
    "  (single-core model throughput is size-independent: all three sizes \
     stream from DRAM)\n";
  figure2_measured ()

(* ------------------------------------------------------------------ *)
(* Figures 3 & 4: OpenMP thread scaling                                *)
(* ------------------------------------------------------------------ *)

let figure34 bench fig =
  header
    (Printf.sprintf "Figure %d: multithreaded %s, 2.1e9 cells (MCells/s)"
       fig (C.benchmark_name bench));
  row "  %-8s %12s %12s %12s\n" "threads" "Cray" "Flang only" "Stencil";
  List.iter
    (fun t ->
      let v pipe = C.mcells ~bench ~pipe ~threads:t () in
      let cray = v C.Cray and flang = v C.Flang_only in
      let st = v C.Stencil_opt in
      row "  %-8d %12.0f %12.0f %12.0f%s\n" t cray flang st
        (if st > cray then "   <- stencil wins" else ""))
    [ 1; 2; 4; 8; 16; 32; 64; 128 ];
  if bench = C.Pw_advection then
    Printf.printf
      "  (paper: the auto-parallelised stencil overtakes hand-written \
       OpenMP at 64 and 128 threads — fusion wins once bandwidth \
       saturates)\n"

(* measured OpenMP differential (correctness + relative cost on this
   container; true scaling needs >1 core) *)
let figure34_measured () =
  let n = if !quick then 24 else 32 in
  let iters = 2 in
  let src = B.gauss_seidel ~nx:n ~ny:n ~nz:n ~niter:iters () in
  let cells = float_of_int (n * n * n * iters) in
  Printf.printf
    "\nMEASURED auto-parallelised OpenMP path (%d core(s) visible to this \
     container):\n"
    (Fsc_rt.Domain_pool.recommended_size ());
  List.iter
    (fun threads ->
      let m =
        measure_pipeline ~src ~cells_per_run:cells
          ~label:(Printf.sprintf "GS Stencil omp.wsloop, %d threads" threads)
          (P.Openmp threads)
      in
      print_endline (Cal.report [ m ]))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Figure 5: GPU                                                       *)
(* ------------------------------------------------------------------ *)

let figure5 () =
  header "Figure 5: Nvidia V100 GPU performance (MCells/s, log-scale data)";
  Printf.printf "MODEL (V100 SXM2-16GB; 500 timesteps):\n\n";
  row "  %-14s %-8s %14s %16s %18s\n" "benchmark" "size" "OpenACC"
    "Stencil(initial)" "Stencil(optimised)";
  let run ~arrays ~bytes ~flops name sizes =
    List.iter
      (fun n ->
        let cells = float_of_int (n * n * n) in
        let v strategy =
          G.mcells ~strategy ~cells ~flops_per_cell:flops
            ~bytes_per_cell:bytes ~arrays
            ~array_bytes:(cells *. 8.0 *. float_of_int arrays)
            ~iters:500 ()
        in
        row "  %-14s %-8s %14.0f %16.1f %18.0f\n" name
          (Printf.sprintf "%d^3" n)
          (v G.Openacc_nvidia) (v G.Stencil_initial)
          (v G.Stencil_optimised))
      sizes
  in
  run ~arrays:2 ~bytes:32.0 ~flops:6.0 "Gauss-Seidel" [ 128; 256; 512 ];
  run ~arrays:6 ~bytes:64.0 ~flops:63.0 "PW advection" [ 128; 256; 512 ];
  (* measured: execute the real GPU pipelines against the simulator and
     report its clock *)
  let n = if !quick then 8 else 12 in
  let iters = 10 in
  Printf.printf
    "\nMEASURED on the simulated device (real extracted kernels, %d^3, %d \
     timesteps):\n"
    n iters;
  let sim_time target =
    let src = B.gauss_seidel ~nx:n ~ny:n ~nz:n ~niter:iters () in
    let a, _ = P.stencil ~target src in
    P.run a;
    let s =
      match a.P.a_ctx.Fsc_rt.Interp.gpu with
      | Some g -> Fsc_rt.Gpu_sim.stats g
      | None -> assert false
    in
    P.shutdown a;
    s
  in
  let si = sim_time (P.Gpu P.Gpu_initial) in
  let so = sim_time (P.Gpu P.Gpu_optimised) in
  let cells = float_of_int (n * n * n * iters) in
  row "  %-38s %10.1f MCells/s  (%d kB paged)\n"
    "GS Stencil (initial data approach)"
    (cells /. si.Fsc_rt.Gpu_sim.s_clock /. 1e6)
    (si.Fsc_rt.Gpu_sim.s_bytes_paged / 1024);
  row "  %-38s %10.1f MCells/s  (%d kB copied once)\n"
    "GS Stencil (optimised data approach)"
    (cells /. so.Fsc_rt.Gpu_sim.s_clock /. 1e6)
    (so.Fsc_rt.Gpu_sim.s_bytes_h2d / 1024)

(* ------------------------------------------------------------------ *)
(* Figure 6: distributed memory                                        *)
(* ------------------------------------------------------------------ *)

let figure6 () =
  header
    "Figure 6: distributed Gauss-Seidel on ARCHER2, 1.7e10 cells (MCells/s)";
  Printf.printf "MODEL (Slingshot, 128 ranks/node, 2-D decomposition):\n\n";
  let global = (2580, 2580, 2580) in
  row "  %-8s %-8s %16s %22s\n" "nodes" "cores" "Hand parallelised"
    "Stencil auto (DMP/MPI)";
  List.iter
    (fun nodes ->
      let ranks = nodes * 128 in
      let hand = N.mcells ~variant:N.Hand_cray ~global ~ranks () in
      let auto = N.mcells ~variant:N.Auto_dmp ~global ~ranks () in
      row "  %-8d %-8d %16.0f %22.0f\n" nodes ranks hand auto)
    [ 2; 4; 8; 16; 32; 64 ];
  Printf.printf
    "  (paper: hand version wins and scales better; auto reaches ~70,000 \
     MCells/s at 8192 cores)\n";
  (* measured: functional SPMD execution over simulated MPI *)
  let n = if !quick then 12 else 16 in
  let iters = 3 in
  let d = Fsc_dmp.Decomp.create ~global:(n, n, n) ~ranks:4 in
  let init name (i, j, k) =
    match name with
    | "u" ->
      V.gs_init i j k
    | _ -> 0.0
  in
  let t = Fsc_dmp.Dist_exec.create d ~fields:[ "u"; "unew" ] ~init in
  let t0 = Unix.gettimeofday () in
  Fsc_dmp.Dist_exec.iterate t ~iters ~swap_fields:[ "u" ] ~compute:(fun ~rank ->
      let st = t.Fsc_dmp.Dist_exec.ranks.(rank) in
      let lx, ly, lz = Fsc_dmp.Decomp.local_extents d rank in
      let local name =
        { V.g_buf = Fsc_dmp.Dist_exec.field st name; V.g_nx = lx;
          V.g_ny = ly; V.g_nz = lz }
      in
      V.gs3d_run ~u:(local "u") ~unew:(local "unew") ~iters:1 ());
  let dt = Unix.gettimeofday () -. t0 in
  let msgs, bytes = Fsc_dmp.Dist_exec.stats t in
  Printf.printf
    "\nMEASURED functional SPMD run: 4 simulated ranks, %d^3 global, %d \
     iters:\n  %.2f MCells/s host-side, %d halo messages, %d kB exchanged\n"
    n iters
    (float_of_int (n * n * n * iters) /. dt /. 1e6)
    msgs (bytes / 1024)

(* ------------------------------------------------------------------ *)
(* Headline summary (Section 4.2 / conclusions)                        *)
(* ------------------------------------------------------------------ *)

let headline () =
  header "Headline claims (paper Section 6)";
  let gs =
    C.mcells ~bench:C.Gauss_seidel ~pipe:C.Stencil_opt ~threads:1 ()
    /. C.mcells ~bench:C.Gauss_seidel ~pipe:C.Flang_only ~threads:1 ()
  in
  let pw =
    C.mcells ~bench:C.Pw_advection ~pipe:C.Stencil_opt ~threads:1 ()
    /. C.mcells ~bench:C.Pw_advection ~pipe:C.Flang_only ~threads:1 ()
  in
  Printf.printf
    "  stencil vs Flang-only single core: GS %.1fx, PW %.1fx (paper: ~2x \
     and ~10x)\n"
    gs pw;
  let pw_gpu strategy =
    G.mcells ~strategy ~cells:(256. ** 3.) ~flops_per_cell:63.
      ~bytes_per_cell:64. ~arrays:6
      ~array_bytes:((256. ** 3.) *. 48.)
      ~iters:500 ()
  in
  Printf.printf
    "  PW on V100, stencil-optimised vs hand OpenACC: %.1fx (paper: ~15x)\n"
    (pw_gpu G.Stencil_optimised /. pw_gpu G.Openacc_nvidia)

(* ------------------------------------------------------------------ *)
(* Future work (paper Section 6): multinode GPU projection             *)
(* ------------------------------------------------------------------ *)

let future_work () =
  header "Future work: multinode GPU (paper Section 6, fifth item)";
  Printf.printf
    "Gauss-Seidel, 2048^3 cells, one V100 per node (model, MCells/s):\n\n";
  row "  %-6s %18s %18s\n" "GPUs" "PCIe-staged halos" "GPUDirect/NVLink";
  let global = (2048, 2048, 2048) in
  List.iter
    (fun gpus ->
      let v gpudirect =
        N.multinode_gpu_mcells
          ~cluster:{ N.default_gpu_cluster with N.gc_gpudirect = gpudirect }
          ~global ~gpus ~bytes_per_cell:32.0 ~flops_per_cell:6.0 ()
      in
      row "  %-6d %18.0f %18.0f\n" gpus (v false) (v true))
    [ 1; 2; 4; 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one grouped test per figure              *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  header "Bechamel micro-benchmarks (ns/run, OLS estimate)";
  let open Bechamel in
  let n = 16 in
  let iters = 1 in
  (* pre-built artifacts so the timed closures do pure execution *)
  let gs_src = B.gauss_seidel ~nx:n ~ny:n ~nz:n ~niter:iters () in
  let pw_src = B.pw_advection ~nx:n ~ny:n ~nz:n ~niter:iters () in
  let st_gs, _ = P.stencil ~target:P.Serial gs_src in
  let st_pw, _ = P.stencil ~target:P.Serial pw_src in
  let gpu_gs, _ = P.stencil ~target:(P.Gpu P.Gpu_optimised) gs_src in
  let flang_gs = P.flang_only gs_src in
  let vu = V.grid3 ~nx:n ~ny:n ~nz:n and vn = V.grid3 ~nx:n ~ny:n ~nz:n in
  V.init_linear vu;
  let pool = Fsc_rt.Domain_pool.create 2 in
  let d = Fsc_dmp.Decomp.create ~global:(n, n, n) ~ranks:4 in
  let dist =
    Fsc_dmp.Dist_exec.create d ~fields:[ "u" ] ~init:(fun _ _ -> 1.0)
  in
  let tests =
    Test.make_grouped ~name:"figures"
      [ (* Figure 2 trio *)
        Test.make ~name:"fig2/gs-flang-only"
          (Staged.stage (fun () -> P.run flang_gs));
        Test.make ~name:"fig2/gs-stencil"
          (Staged.stage (fun () -> P.run st_gs));
        Test.make ~name:"fig2/gs-cray-class"
          (Staged.stage (fun () -> V.gs3d_run ~u:vu ~unew:vn ~iters ()));
        Test.make ~name:"fig2/pw-stencil"
          (Staged.stage (fun () -> P.run st_pw));
        (* Figure 3/4: one work-shared sweep through the pool *)
        Test.make ~name:"fig34/gs-openmp-sweep"
          (Staged.stage (fun () -> V.gs3d_sweep ~pool ~u:vu ~unew:vn ()));
        (* Figure 5: a full GPU timestep against the simulator *)
        Test.make ~name:"fig5/gs-gpu-optimised"
          (Staged.stage (fun () -> P.run gpu_gs));
        (* Figure 6: one halo superstep over simulated MPI *)
        Test.make ~name:"fig6/halo-superstep"
          (Staged.stage (fun () ->
               Fsc_dmp.Dist_exec.iterate dist ~iters:1 ~swap_fields:[ "u" ]
                 ~compute:(fun ~rank:_ -> ())));
        (* compilation pipeline itself *)
        Test.make ~name:"pipeline/compile-gs"
          (Staged.stage (fun () ->
               let a, _ = P.stencil ~target:P.Serial gs_src in
               P.shutdown a)) ]
  in
  let cfg =
    Benchmark.cfg ~limit:200
      ~quota:(Time.second (if !quick then 0.25 else 0.6))
      ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> rows := (name, est) :: !rows
      | _ -> rows := (name, Float.nan) :: !rows)
    results;
  List.iter
    (fun (name, est) -> Printf.printf "  %-36s %14.0f ns/run\n" name est)
    (List.sort compare !rows);
  Fsc_rt.Domain_pool.shutdown pool


(* ------------------------------------------------------------------ *)

let () =
  Printf.printf
    "fsc benchmark harness — reproducing Brown et al., \"Fortran \
     performance optimisation and auto-parallelisation by leveraging \
     MLIR-based domain specific abstractions in Flang\" (SC-W 2023)\n";
  if !kernels_only then begin
    write_kernels_json ();
    exit 0
  end;
  if !dist_only then begin
    write_dmp_json ();
    exit 0
  end;
  write_kernels_json ();
  write_dmp_json ();
  if want 2 then figure2 ();
  if want 3 then figure34 C.Gauss_seidel 3;
  if want 4 then figure34 C.Pw_advection 4;
  if want 3 || want 4 then figure34_measured ();
  if want 5 then figure5 ();
  if want 6 then figure6 ();
  headline ();
  if !figures = [] then future_work ();
  if !run_bechamel then bechamel_suite ();
  print_newline ()
