(* End-to-end differential tests: every pipeline x target must compute
   bit-identical grids on both benchmarks — the substrate's ground truth
   for the paper's "same unchanged source code on every architecture"
   claim — plus GPU data-strategy accounting checks. *)

module P = Fsc_driver.Pipeline
module B = Fsc_driver.Benchmarks
module Rt = Fsc_rt.Memref_rt
module V = Fsc_rt.Vendor_kernels

let gs_src = B.gauss_seidel ~nx:8 ~ny:8 ~nz:8 ~niter:3 ()
let pw_src = B.pw_advection ~nx:8 ~ny:8 ~nz:8 ~niter:2 ()

let reference src names =
  let a = P.flang_only src in
  P.run a;
  List.map (fun n -> (n, P.buffer_exn a n)) names

let gs_ref = lazy (reference gs_src [ "u" ])
let pw_ref = lazy (reference pw_src [ "su"; "sv"; "sw" ])

let check_target ~src ~refs target =
  let a, _ = P.stencil ~target src in
  P.run a;
  List.iter
    (fun (name, ref_buf) ->
      Alcotest.(check (float 0.))
        (name ^ " identical to flang-only")
        0.0
        (Rt.max_abs_diff ref_buf (P.buffer_exn a name)))
    (Lazy.force refs);
  P.shutdown a;
  a

let test_gs_serial () =
  ignore (check_target ~src:gs_src ~refs:gs_ref P.Serial)

let test_gs_openmp () =
  ignore (check_target ~src:gs_src ~refs:gs_ref (P.Openmp 2))

let test_gs_gpu_initial () =
  ignore (check_target ~src:gs_src ~refs:gs_ref (P.Gpu P.Gpu_initial))

let test_gs_gpu_optimised () =
  ignore (check_target ~src:gs_src ~refs:gs_ref (P.Gpu P.Gpu_optimised))

let test_pw_serial () =
  ignore (check_target ~src:pw_src ~refs:pw_ref P.Serial)

let test_pw_openmp () =
  ignore (check_target ~src:pw_src ~refs:pw_ref (P.Openmp 2))

let test_pw_gpu_optimised () =
  ignore (check_target ~src:pw_src ~refs:pw_ref (P.Gpu P.Gpu_optimised))

let test_gs_vendor () =
  let u = V.grid3 ~nx:8 ~ny:8 ~nz:8 and unew = V.grid3 ~nx:8 ~ny:8 ~nz:8 in
  V.init_linear u;
  V.gs3d_run ~u ~unew ~iters:3 ();
  let ref_u = List.assoc "u" (Lazy.force gs_ref) in
  Alcotest.(check (float 0.)) "vendor identical" 0.0
    (Rt.max_abs_diff ref_u u.V.g_buf)

let test_pw_vendor () =
  let g () = V.grid3 ~nx:8 ~ny:8 ~nz:8 in
  let u = g () and v = g () and w = g () in
  let su = g () and sv = g () and sw = g () in
  let init (a, b, c) grid =
    Rt.init grid.V.g_buf (fun _ -> 0.0);
    for k = 0 to 9 do
      for j = 0 to 9 do
        for i = 0 to 9 do
          Rt.set grid.V.g_buf [| i; j; k |]
            ((a *. float_of_int i) +. (b *. float_of_int j)
            +. (c *. float_of_int k))
        done
      done
    done
  in
  init (0.01, 0.02, 0.03) u;
  init (0.03, 0.01, 0.02) v;
  init (0.02, 0.03, 0.01) w;
  for _ = 1 to 2 do
    V.pw_advect ~u ~v ~w ~su ~sv ~sw ~rdx:0.1 ~rdy:0.2 ~rdz:0.3 ()
  done;
  List.iter2
    (fun name grid ->
      Alcotest.(check (float 0.))
        (name ^ " vendor identical")
        0.0
        (Rt.max_abs_diff (List.assoc name (Lazy.force pw_ref)) grid.V.g_buf))
    [ "su"; "sv"; "sw" ] [ su; sv; sw ]

(* ---- pipeline structure ---- *)

let test_stencil_counts () =
  let _, st = P.stencil ~target:P.Serial gs_src in
  Alcotest.(check int) "gs: 4 stencils" 4 st.P.st_discovered;
  Alcotest.(check int) "gs: init merge" 1 st.P.st_merged;
  Alcotest.(check int) "gs: 2 kernels" 2 st.P.st_kernels;
  let _, st = P.stencil ~target:P.Serial pw_src in
  Alcotest.(check int) "pw: 9 stencils" 9 st.P.st_discovered;
  Alcotest.(check int) "pw: 7 merges" 7 st.P.st_merged

let test_all_kernels_compiled () =
  let a, _ = P.stencil ~target:P.Serial gs_src in
  List.iter
    (fun (name, impl) ->
      match impl with
      | P.Compiled _ | P.Vectorised _ | P.Native_jit _ | P.Distributed _ ->
        ()
      | P.Interpreted reason ->
        Alcotest.failf "%s fell back to the interpreter: %s" name reason)
    a.P.a_kernels

let test_ablation_flags () =
  (* disabling merge/specialisation changes the pipeline, never the
     answer *)
  let a_ref = P.flang_only pw_src in
  P.run a_ref;
  let check_flags ~merge ~specialize =
    let a, st = P.stencil ~target:P.Serial ~merge ~specialize pw_src in
    if not merge then
      Alcotest.(check int) "no merges when disabled" 0 st.P.st_merged;
    P.run a;
    List.iter
      (fun name ->
        Alcotest.(check (float 0.)) (name ^ " unchanged") 0.0
          (Rt.max_abs_diff (P.buffer_exn a_ref name) (P.buffer_exn a name)))
      [ "su"; "sv"; "sw" ]
  in
  check_flags ~merge:false ~specialize:true;
  check_flags ~merge:true ~specialize:false;
  check_flags ~merge:false ~specialize:false

(* A failing pass must surface its name and keep the stats recorded up
   to and including the failure — the debuggability contract the
   observability layer depends on. *)
let test_failed_pass_preserves_stats () =
  let module Pass = Fsc_ir.Pass in
  let m = Fsc_ir.Op.create_module () in
  let ran = ref false in
  let ok = Pass.create "warmup" (fun _ -> ran := true) in
  let boom = Pass.create "boom" (fun _ -> failwith "nope") in
  match Pass.run_pipeline ~verify_each:false [ ok; boom ] m with
  | _ -> Alcotest.fail "pipeline should have failed"
  | exception Pass.Pipeline_error (name, Failure msg, stats) ->
    Alcotest.(check bool) "first pass ran" true !ran;
    Alcotest.(check string) "failing pass name surfaced" "boom" name;
    Alcotest.(check string) "original exception preserved" "nope" msg;
    Alcotest.(check (list string))
      "stats preserved, including the failing pass" [ "warmup"; "boom" ]
      (List.map (fun s -> s.Pass.s_pass) stats);
    List.iter
      (fun s ->
        Alcotest.(check bool)
          (s.Pass.s_pass ^ " timed") true (s.Pass.s_seconds >= 0.))
      stats

let test_gpu_ir_artifact () =
  let a, _ = P.stencil ~target:(P.Gpu P.Gpu_optimised) gs_src in
  match a.P.a_gpu_ir with
  | None -> Alcotest.fail "no GPU IR produced"
  | Some gm -> (
    match Fsc_lowering.Gpu_pipeline.verify_gpu_artifact gm with
    | Ok () -> ()
    | Error e -> Alcotest.failf "GPU artifact: %s" e)

(* ---- concurrent compiles ---- *)

(* IR value/op ids come from one process-wide counter. Compiles running
   on several domains at once must still draw distinct ids, or id-keyed
   maps (verifier scopes, clone mappings, printer names) conflate values
   and the pipeline miscompiles. Many distinct sources compiled and run
   on two domains must give exactly the grids of sequential runs. *)
let test_concurrent_compiles () =
  let shapes = [| (6, 1); (7, 2); (8, 1); (8, 2) |] in
  let copies = 60 in
  let src_of i =
    let n, niter = shapes.(i mod Array.length shapes) in
    B.pw_advection ~nx:n ~ny:n ~nz:n ~niter ()
    ^ Printf.sprintf "! copy %d\n" i
  in
  let options = P.default_options ~target:P.Serial () in
  let bits src =
    (* compile + link, as the job server does: [P.stencil] resets the
       kernel-name counter and is documented as serial-only *)
    let a = P.link (P.compile options src) in
    P.run a;
    List.map
      (fun name ->
        let b = P.buffer_exn a name in
        Array.init (Rt.size b) (fun i -> Int64.bits_of_float (Rt.get_flat b i)))
      [ "su"; "sv"; "sw" ]
  in
  let expected = Array.map (fun i -> bits (src_of i)) [| 0; 1; 2; 3 |] in
  let total = copies * Array.length shapes in
  let worker first () =
    let bad = ref [] in
    let i = ref first in
    while !i < total do
      (match bits (src_of !i) with
      | got when got = expected.(!i mod Array.length shapes) -> ()
      | _ -> bad := Printf.sprintf "copy %d: grids differ" !i :: !bad
      | exception e ->
        let msg = List.hd (String.split_on_char '\n' (Printexc.to_string e)) in
        bad := Printf.sprintf "copy %d: %s" !i msg :: !bad);
      i := !i + 2
    done;
    !bad
  in
  let d0 = Domain.spawn (worker 0) and d1 = Domain.spawn (worker 1) in
  let bad = Domain.join d0 @ Domain.join d1 in
  Alcotest.(check (list string))
    (Printf.sprintf "%d concurrent compiles equal sequential runs" total)
    [] bad

(* ---- GPU accounting: the Figure 5 story in stats ---- *)

let gpu_stats target =
  (* enough timesteps to amortise the optimised strategy's one-time
     transfers against the initial strategy's per-launch paging *)
  let src = B.gauss_seidel ~nx:8 ~ny:8 ~nz:8 ~niter:20 () in
  let a, _ = P.stencil ~target src in
  P.run a;
  let stats =
    match a.P.a_ctx.Fsc_rt.Interp.gpu with
    | Some g -> Fsc_rt.Gpu_sim.stats g
    | None -> Alcotest.fail "no GPU"
  in
  P.shutdown a;
  stats

let test_gpu_strategy_accounting () =
  let initial = gpu_stats (P.Gpu P.Gpu_initial) in
  let optimised = gpu_stats (P.Gpu P.Gpu_optimised) in
  (* initial: pages everything on every one of the timestep launches *)
  Alcotest.(check bool) "initial pages heavily" true
    (initial.Fsc_rt.Gpu_sim.s_bytes_paged
    > 4 * Rt.bytes (Rt.create [ 10; 10; 10 ]));
  (* optimised: no paging at all, bounded explicit transfers *)
  Alcotest.(check int) "optimised never pages" 0
    optimised.Fsc_rt.Gpu_sim.s_bytes_paged;
  Alcotest.(check bool) "optimised is faster on the simulated clock" true
    (optimised.Fsc_rt.Gpu_sim.s_clock < initial.Fsc_rt.Gpu_sim.s_clock);
  Alcotest.(check bool) "same number of kernel launches" true
    (initial.Fsc_rt.Gpu_sim.s_kernels = optimised.Fsc_rt.Gpu_sim.s_kernels)

let () =
  Alcotest.run "driver"
    [ ("gauss-seidel",
       [ Alcotest.test_case "serial" `Quick test_gs_serial;
         Alcotest.test_case "openmp" `Quick test_gs_openmp;
         Alcotest.test_case "gpu initial" `Quick test_gs_gpu_initial;
         Alcotest.test_case "gpu optimised" `Quick test_gs_gpu_optimised;
         Alcotest.test_case "vendor" `Quick test_gs_vendor ]);
      ("pw-advection",
       [ Alcotest.test_case "serial" `Quick test_pw_serial;
         Alcotest.test_case "openmp" `Quick test_pw_openmp;
         Alcotest.test_case "gpu optimised" `Quick test_pw_gpu_optimised;
         Alcotest.test_case "vendor" `Quick test_pw_vendor ]);
      ("structure",
       [ Alcotest.test_case "stencil counts" `Quick test_stencil_counts;
         Alcotest.test_case "all kernels compiled" `Quick
           test_all_kernels_compiled;
         Alcotest.test_case "ablation flags" `Quick test_ablation_flags;
         Alcotest.test_case "failed pass preserves stats" `Quick
           test_failed_pass_preserves_stats;
         Alcotest.test_case "gpu IR artifact" `Quick test_gpu_ir_artifact ]);
      ("concurrency",
       [ Alcotest.test_case "concurrent compiles equal sequential" `Quick
           test_concurrent_compiles ]);
      ("gpu-accounting",
       [ Alcotest.test_case "strategy accounting" `Quick
           test_gpu_strategy_accounting ]) ]
