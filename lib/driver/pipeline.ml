(* End-to-end compilation and execution pipelines — the "Figure 1" of the
   paper as code. Each flow takes Fortran source text and produces a
   runnable artifact:

   - [flang_only]: frontend -> FIR -> direct execution (the paper's
     baseline of Flang lowering FIR straight to LLVM-IR with no standard-
     dialect optimisation — here, the naive tree-walking tier);
   - [stencil]: frontend -> FIR -> discover -> merge -> extract ->
     stencil-to-scf (+specialise / openmp / gpu pipeline) -> compiled
     kernels linked back into the FIR host program;
   - vendor baselines (Cray CPU, OpenACC-Nvidia GPU, hand-MPI) live in
     [Fsc_rt.Vendor_kernels] and are driven by the bench harness. *)

open Fsc_ir
module Interp = Fsc_rt.Interp
module Kc = Fsc_rt.Kernel_compile
module Kb = Fsc_rt.Kernel_bytecode
module Obs = Fsc_obs.Obs
module Diag = Fsc_analysis.Diag

(* A typed, renderable driver error. The CLI catches it, renders the
   diagnostic through [Fsc_analysis.Diag] and exits nonzero — no raw
   [Failure] backtraces for user errors. *)
exception Error_diag of Diag.t

let driver_error fmt =
  Printf.ksprintf
    (fun msg -> raise (Error_diag (Diag.error ~code:"pipeline" msg)))
    fmt

(* A rewrite pass hitting its max-iterations backstop used to escape as
   a raw [Failure] through the CLI; surface it as a typed diagnostic
   naming the offending pass instead. *)
let nontermination_diag pass =
  Error_diag
    (Diag.errorf ~code:"pipeline"
       ~notes:
         [ ( None,
             "the greedy rewriter exceeded its max-iterations backstop; a \
              pattern in this pass keeps firing without reaching a \
              fixpoint" ) ]
       "pass '%s' does not terminate" pass)

(* every pipeline stage is a span under this category, so a --trace of a
   compile shows frontend / discovery / merge / extraction / lowering /
   linking as one nested timeline *)
let stage name f =
  Obs.with_span ~cat:"pipeline" name (fun () ->
      try f () with
      | Rewrite.Nontermination -> raise (nontermination_diag name)
      | Pass.Pipeline_error (pass, Rewrite.Nontermination, _) ->
        raise (nontermination_diag pass))

let log_src = Logs.Src.create "fsc.driver" ~doc:"compilation driver"

module Log = (val Logs.src_log log_src : Logs.LOG)

type gpu_strategy =
  | Gpu_initial
  | Gpu_optimised

type target =
  | Serial
  | Openmp of int (* threads *)
  | Gpu of gpu_strategy
  | Dist of int (* simulated MPI ranks *)

let target_kind = function
  | Serial -> "serial"
  | Openmp _ -> "openmp"
  | Gpu Gpu_initial -> "gpu-initial"
  | Gpu Gpu_optimised -> "gpu-optimised"
  | Dist _ -> "dist"

let target_name = function
  | Openmp n -> Printf.sprintf "openmp(%d)" n
  | Dist r -> Printf.sprintf "dist(%d)" r
  | t -> target_kind t

(* Which execution tier runs compiled kernels. The engine is link-time
   state (like the pool size): it never changes the compiled IR, so it
   is not part of {!options} or the cache key. *)
type exec_engine =
  | Engine_interp  (* force the tree-walking interpreter *)
  | Engine_closure (* Kernel_compile's per-cell closure JIT *)
  | Engine_vector  (* Kernel_bytecode's row engine, closure fallback *)
  | Engine_native  (* Fsc_codegen's emitted-OCaml JIT, vector fallback *)

let engine_name = function
  | Engine_interp -> "interp"
  | Engine_closure -> "closure"
  | Engine_vector -> "vector"
  | Engine_native -> "native"

let engine_of_name = function
  | "interp" -> Some Engine_interp
  | "closure" -> Some Engine_closure
  | "vector" -> Some Engine_vector
  | "native" -> Some Engine_native
  | _ -> None

let all_engines =
  [ Engine_interp; Engine_closure; Engine_vector; Engine_native ]

let engine_names = List.map engine_name all_engines

type kernel_impl =
  | Compiled of Kc.spec
  | Vectorised of Kc.spec * Kb.plan
  | Native_jit of Kc.spec * Fsc_codegen.Native.kernel
  | Interpreted of string (* fallback reason *)
  | Distributed of Kc.spec (* SPMD over simulated ranks via Dist_kernel *)

type artifact = {
  a_host : Op.op;
  a_stencil : Op.op option; (* the extracted module, post-lowering *)
  a_gpu_ir : Op.op option;  (* Listing-4 pipeline output, GPU targets *)
  a_ctx : Interp.context;
  a_kernels : (string * kernel_impl) list;
  a_target : target;
  a_dist : Fsc_dmp.Dist_kernel.state option; (* distributed runtime *)
}

(* Not [lazy]: forcing a lazy from two domains at once is undefined in
   OCaml 5, and the job server compiles on worker domains. A mutex-run
   once-guard gives the same one-shot init, domain-safely. *)
let reg_mutex = Mutex.create ()
let reg_done = ref false

let ensure_registered () =
  Mutex.lock reg_mutex;
  if not !reg_done then begin
    Fsc_dialects.Registry.init ();
    reg_done := true
  end;
  Mutex.unlock reg_mutex

(* -------------------- flang only -------------------- *)

let flang_only src =
  ensure_registered ();
  let m = stage "frontend" (fun () -> Fsc_fortran.Flower.compile_source src) in
  stage "verify" (fun () ->
      Verifier.verify_in_context_exn (Dialect.flang_context ()) m);
  let ctx = Interp.create_context () in
  Interp.add_module ctx m;
  { a_host = m; a_stencil = None; a_gpu_ir = None; a_ctx = ctx;
    a_kernels = []; a_target = Serial; a_dist = None }

(* -------------------- stencil flow -------------------- *)

let spec_buffers args =
  List.filter_map
    (function Interp.R_buf b -> Some b | _ -> None)
    args

let spec_scalars args =
  List.filter_map
    (function
      | Interp.R_float f -> Some f
      | Interp.R_int n -> Some (float_of_int n)
      | _ -> None)
    args

(* The default native-JIT context: process-wide, created on first use
   (async builds, artifact cache in the default directory). Callers
   wanting a specific cache directory, sync builds or a different
   toolchain pass their own ctx to [link ~native]. *)
let native_mutex = Mutex.create ()
let native_default : Fsc_codegen.Native.ctx option ref = ref None

let default_native_ctx () =
  Mutex.lock native_mutex;
  let ctx =
    match !native_default with
    | Some c -> c
    | None ->
      let c = Fsc_codegen.Native.create () in
      native_default := Some c;
      c
  in
  Mutex.unlock native_mutex;
  ctx

(* Register one stencil kernel's runtime implementation. [dist] is the
   distributed runtime state for [Dist] targets (absent under the interp
   engine, which executes the whole program on the host interpreter).
   [native] is the native-JIT context, present iff the engine is
   [Engine_native] on a CPU target. *)
let register_kernel ~engine ~target ~pool ~dist ~native ctx kernel_func =
  let name = Fsc_dialects.Func.name kernel_func in
  match engine with
  | Engine_interp ->
    (* register nothing: the interpreter executes the kernel func *)
    (name, Interpreted "execution engine 'interp' selected")
  | Engine_closure | Engine_vector | Engine_native -> (
    match Kc.try_analyze kernel_func with
    | Error reason ->
      Log.debug (fun f ->
          f "kernel %s: interpreter fallback (%s)" name reason);
      (match (target, dist) with
      | Dist _, Some dst ->
        (* the interpreter must see current host globals: gather the
           scattered groups first, and re-scatter afterwards *)
        let impl ctx args =
          Obs.with_span ~cat:"kernel" ("kernel.exec " ^ name) @@ fun () ->
          Fsc_dmp.Dist_kernel.run_fallback dst ~reason (fun () ->
              Interp.call_func ctx kernel_func args)
        in
        Interp.register_external ctx name impl
      | _ -> ());
      (name, Interpreted reason)
    | Ok spec ->
      (* GPU targets execute on the simulator's device twins through the
         closure engine regardless of [engine]; the vector and native
         tiers are CPU execution strategies. Under [Dist] the ranks run
         the stage code [Dist_kernel] compiles through the link-time
         factory ([dist_factory]); this kernel-level path only serves
         host fallbacks, on the vector plan. *)
      let native_kernel =
        match (engine, target, native) with
        | Engine_native, (Serial | Openmp _), Some nctx ->
          Some (Fsc_codegen.Native.prepare nctx ~name spec)
        | _ -> None
      in
      let vplan =
        match (engine, target) with
        | (Engine_vector | Engine_native), (Serial | Openmp _ | Dist _)
          when Option.is_none native_kernel ->
          Some (Kb.compile_spec spec)
        | _ -> None
      in
      let exec ?pool ~bufs ~scalars () =
        match native_kernel with
        | Some nk -> Fsc_codegen.Native.run nk ?pool ~bufs ~scalars ()
        | None -> (
          match vplan with
          | Some plan -> Kb.run plan ?pool ~bufs ~scalars ()
          | None -> Kc.run spec ?pool ~bufs ~scalars ())
      in
      let impl _ctx args =
        Obs.with_span ~cat:"kernel" ("kernel.exec " ^ name) @@ fun () ->
        let bufs = Array.of_list (spec_buffers args) in
        let scalars = Array.of_list (spec_scalars args) in
        (match target with
        | Serial -> exec ~bufs ~scalars ()
        | Openmp _ -> exec ?pool ~bufs ~scalars ()
        | Dist _ -> (
          match dist with
          | Some dst ->
            Fsc_dmp.Dist_kernel.run_kernel dst ~name spec
              ~host:(fun () -> exec ?pool ~bufs ~scalars ())
              ~bufs ~scalars
          | None -> exec ~bufs ~scalars ())
        | Gpu strategy ->
          let g =
            match ctx.Interp.gpu with
            | Some g -> g
            | None ->
              driver_error
                "kernel '%s' requires a GPU device, but the artifact was \
                 linked without one (GPU target without device)"
                name
          in
          (* execute on the device twins, charge the simulator *)
          let dev_bufs = Array.map (Fsc_rt.Gpu_sim.kernel_view g) bufs in
          let sim_strategy =
            match strategy with
            | Gpu_initial -> Fsc_rt.Gpu_sim.Strategy_host_register
            | Gpu_optimised -> Fsc_rt.Gpu_sim.Strategy_device_resident
          in
          let block_threads = 32 * 32 in
          let elems =
            if Array.length bufs = 0 then 0
            else Fsc_rt.Memref_rt.size bufs.(0)
          in
          let blocks = (elems + block_threads - 1) / block_threads in
          Obs.with_span ~cat:"kernel"
            ~args:
              [ ("blocks", Obs.A_int blocks);
                ("threads_per_block", Obs.A_int block_threads) ]
            ("gpu.launch " ^ name)
          @@ fun () ->
          Fsc_rt.Gpu_sim.launch g ~strategy:sim_strategy
            ~block_threads
            ~flops:(float_of_int (Kc.flops spec))
            ~bytes_accessed:(8.0 *. float_of_int (Kc.loads spec))
            ~body:(fun () -> Kc.run spec ~bufs:dev_bufs ~scalars ())
            (Array.to_list bufs));
        []
      in
      Interp.register_external ctx name impl;
      (match (native_kernel, vplan) with
      | Some nk, _ -> (name, Native_jit (spec, nk))
      | None, Some plan -> (name, Vectorised (spec, plan))
      | None, None -> (name, Compiled spec)))

(* The per-stage runner factory for [Dist] targets. Under the native
   engine a rank-uniform stage gets one plugin shared by every rank:
   bound here on the caller with rank 0's buffers (so a [Sync] build
   happens before any rank runs, never on a pool worker), served from
   its vector plan until resident in [Async] mode. Every other stage
   keeps per-rank vector runners — building one plugin per rank variant
   would multiply cold builds for stages whose ranks differ. *)
let dist_factory ~engine ~native =
  let module Dk = Fsc_dmp.Dist_kernel in
  let module N = Fsc_codegen.Native in
  match (engine, native) with
  | Engine_closure, _ -> Dk.closure
  | Engine_native, Some nctx ->
    { Dk.f_engine = "native";
      f_stage =
        (fun ~name ~uniform ~bufs specs ->
          if (not uniform) || specs.(0).Kc.k_nests = [] then
            Dk.vector.Dk.f_stage ~name ~uniform ~bufs specs
          else begin
            let nk = N.prepare nctx ~name specs.(0) in
            N.bind nk ~bufs:bufs.(0);
            let ranks = Array.length specs in
            let mix () =
              let r = N.report nk in
              { Dk.nm_native = ranks * r.N.rp_native_nests;
                nm_vector = ranks * r.N.rp_vector_nests;
                nm_total = ranks * r.N.rp_total_nests }
            in
            { Dk.sc_runners =
                Array.make ranks (fun ~bufs ~scalars ->
                    N.run nk ~bufs ~scalars ());
              sc_body = N.key nk; sc_mix = mix;
              sc_drain = (fun () -> N.drain nk) }
          end) }
  | _ -> Dk.vector

(* GPU data-management externals for the optimised strategy; [managed]
   is the list of kernel symbols whose placement was hoisted. *)
let register_gpu_data ctx (managed : string list) =
  List.iter
    (fun kernel ->
      let with_gpu f _ args =
        (match ctx.Interp.gpu with
        | Some g -> List.iter (f g) (spec_buffers args)
        | None -> ());
        []
      in
      Interp.register_external ctx (kernel ^ "_gpu_init")
        (with_gpu (fun g b ->
             Fsc_rt.Gpu_sim.alloc g b;
             Fsc_rt.Gpu_sim.memcpy_h2d g b));
      Interp.register_external ctx (kernel ^ "_gpu_sync")
        (with_gpu Fsc_rt.Gpu_sim.memcpy_d2h);
      Interp.register_external ctx (kernel ^ "_gpu_free")
        (with_gpu (fun _ _ -> ())))
    managed

type stencil_stats = {
  st_discovered : int;
  st_merged : int;
  st_kernels : int;
}

type options = {
  opt_target : target;
  opt_l2_kb : int; (* per-core cache budget for CPU tile annotation *)
}

let default_options ?(target = Serial) () =
  { opt_target = target;
    opt_l2_kb = Fsc_perf.Machine.host_cache.Fsc_perf.Machine.ch_l2_kb }

(* GPU pipeline tiling: the paper's Listing 4 *)
let gpu_tile_sizes = [ 32; 32; 1 ]

type compiled_artifact = {
  ca_host : Op.op;
  ca_stencil : Op.op;
  ca_gpu_ir : Op.op option;
  ca_kernels : string list;
  ca_managed : string list;
  ca_footprints : (string * Fsc_analysis.Footprint.t) list;
  ca_stats : stencil_stats;
  ca_options : options;
}

let is_stencil_kernel n =
  String.length n >= 15
  && String.sub n 0 15 = "_stencil_kernel"
  (* the *_gpu_init/sync/free device-management trampolines are
     implemented by runtime externals, not kernels *)
  && not (Filename.check_suffix n "_gpu_init")
  && not (Filename.check_suffix n "_gpu_sync")
  && not (Filename.check_suffix n "_gpu_free")

(* The pure front half of the paper's Figure 1: everything from source
   text to lowered modules. No runtime state is created here, so the
   result can be printed, cached and re-linked at will. *)
let compile options src =
  ensure_registered ();
  let target = options.opt_target in
  (* 1. Flang frontend *)
  let m = stage "frontend" (fun () -> Fsc_fortran.Flower.compile_source src) in
  (* 2. xDSL side: discover + merge on the mixed module *)
  let dstats = stage "discovery" (fun () -> Fsc_core.Discovery.run m) in
  let merged = stage "merge" (fun () -> Fsc_core.Merge.run m) in
  stage "verify" (fun () -> Verifier.verify_exn m);
  (* 3. extract stencil sections into their own module *)
  let ex = stage "extraction" (fun () -> Fsc_core.Extraction.run m) in
  let host = ex.Fsc_core.Extraction.host_module in
  let stencil_m = ex.Fsc_core.Extraction.stencil_module in
  (* the host side must now be pure Flang-registered dialects *)
  stage "verify host" (fun () ->
      Verifier.verify_in_context_exn (Dialect.flang_context ()) host);
  (* 4. GPU data placement (optimised strategy only) *)
  let managed =
    match target with
    | Gpu Gpu_optimised ->
      stage "gpu data placement" (fun () ->
          Fsc_core.Gpu_data.run ~host_module:host ~stencil_module:stencil_m)
    | _ -> []
  in
  (* 5. lower the stencil module *)
  let mode =
    match target with
    | Gpu _ -> Fsc_lowering.Stencil_to_scf.Gpu
    | _ -> Fsc_lowering.Stencil_to_scf.Cpu
  in
  stage "stencil-to-scf" (fun () ->
      Fsc_lowering.Stencil_to_scf.run ~mode stencil_m);
  stage "canonicalize" (fun () ->
      ignore (Fsc_transforms.Canonicalize.run stencil_m));
  (match target with
  | Serial | Openmp _ | Dist _ ->
    stage "loop specialisation" (fun () ->
        ignore (Fsc_lowering.Loop_specialize.run stencil_m))
  | Gpu _ -> ());
  (* keep a pre-GPU-pipeline copy for compiled execution; the Listing 4
     pipeline output is produced alongside for inspection/verification *)
  let gpu_ir =
    match target with
    | Gpu _ ->
      stage "gpu pipeline (Listing 4)" (fun () ->
          let clone = Op.clone stencil_m in
          ignore
            (Fsc_lowering.Gpu_pipeline.run ~tile_sizes:gpu_tile_sizes clone);
          Some clone)
    | _ -> None
  in
  (match target with
  | Openmp _ ->
    stage "scf-to-openmp" (fun () ->
        ignore (Fsc_lowering.Scf_to_openmp.run stencil_m))
  | _ -> ());
  (* annotate the (final) top-level loop ops with cache-tile sizes for
     the CPU vector executor; after scf-to-openmp so the attribute lands
     on the op the kernel analyser starts from *)
  (match target with
  | Serial | Openmp _ | Dist _ ->
    stage "cpu tile annotation" (fun () ->
        ignore
          (Fsc_lowering.Loop_tiling.annotate_cpu ~l2_kb:options.opt_l2_kb
             stencil_m))
  | Gpu _ -> ());
  let kernel_funcs =
    Fsc_dialects.Func.all_functions stencil_m
    |> List.filter (fun f -> is_stencil_kernel (Fsc_dialects.Func.name f))
  in
  let kernels = List.map Fsc_dialects.Func.name kernel_funcs in
  (* per-kernel affine footprints, for the halo-staling and guard-elision
     consumers; kernels outside the analysable shape simply have none *)
  let footprints =
    stage "footprint analysis" (fun () ->
        List.filter_map
          (fun f ->
            match Kc.try_analyze f with
            | Ok spec ->
              Some
                ( Fsc_dialects.Func.name f,
                  Fsc_analysis.Footprint.of_spec spec )
            | Error _ -> None)
          kernel_funcs)
  in
  { ca_host = host; ca_stencil = stencil_m; ca_gpu_ir = gpu_ir;
    ca_kernels = kernels; ca_footprints = footprints;
    ca_managed = List.map (fun m -> m.Fsc_core.Gpu_data.mg_kernel) managed;
    ca_stats =
      { st_discovered = dstats.Fsc_core.Discovery.found; st_merged = merged;
        st_kernels = List.length kernels };
    ca_options = options }

(* The impure back half: host interpreted, kernels compiled where
   possible, pool/device allocated per target. Works identically on a
   freshly compiled artifact and on one re-parsed from the cache. *)
let link ?(engine = Engine_vector) ?native ca =
  ensure_registered ();
  let target = ca.ca_options.opt_target in
  (* resolve the native ctx only when the engine/target pair uses it *)
  let native =
    match (engine, target) with
    | Engine_native, (Serial | Openmp _ | Dist _) ->
      Some
        (match native with
        | Some nctx -> nctx
        | None -> default_native_ctx ())
    | _ -> None
  in
  let ctx = Interp.create_context () in
  Interp.add_module ctx ca.ca_host;
  Interp.add_module ctx ca.ca_stencil;
  let pool =
    match target with
    | Openmp n -> Some (Fsc_rt.Domain_pool.create n)
    | Dist r ->
      (* run ranks concurrently, but never spawn more domains than the
         host has cores for — extra ranks time-share via work stealing *)
      let n = min r (Fsc_rt.Domain_pool.recommended_size ()) in
      if n >= 2 then Some (Fsc_rt.Domain_pool.create n) else None
    | _ -> None
  in
  ctx.Interp.pool <- pool;
  let dist =
    match (target, engine) with
    | Dist ranks, (Engine_closure | Engine_vector | Engine_native) ->
      Some
        (Fsc_dmp.Dist_kernel.create ?pool ~ranks
           ~factory:(dist_factory ~engine ~native) ())
    | _ -> None
  in
  (match target with
  | Gpu strategy ->
    ctx.Interp.gpu <- Some (Fsc_rt.Gpu_sim.create ());
    ctx.Interp.gpu_strategy <-
      (match strategy with
      | Gpu_initial -> Fsc_rt.Gpu_sim.Strategy_host_register
      | Gpu_optimised -> Fsc_rt.Gpu_sim.Strategy_device_resident)
  | _ -> ());
  let kernels =
    stage "link + kernel compile" (fun () ->
        Fsc_dialects.Func.all_functions ca.ca_stencil
        |> List.filter (fun f ->
               List.mem (Fsc_dialects.Func.name f) ca.ca_kernels)
        |> List.map
             (register_kernel ~engine ~target ~pool ~dist ~native ctx))
  in
  register_gpu_data ctx ca.ca_managed;
  { a_host = ca.ca_host; a_stencil = Some ca.ca_stencil;
    a_gpu_ir = ca.ca_gpu_ir; a_ctx = ctx; a_kernels = kernels;
    a_target = target; a_dist = dist }

(* The full stencil pipeline of the paper's Figure 1. Resets the global
   kernel-name counter for reproducible names — which is why [compile]
   (callable concurrently from server workers) does not: a reset racing
   another in-flight compile could hand out duplicate names. *)
let stencil ?target ?engine ?native src =
  let options = default_options ?target () in
  Fsc_core.Extraction.reset_name_counter ();
  let ca = compile options src in
  (link ?engine ?native ca, ca.ca_stats)

(* -------------------- execution -------------------- *)

let run artifact =
  (* distributed: buffers are allocated per run, so reset the scatter
     groups before main and gather everything back after *)
  Option.iter Fsc_dmp.Dist_kernel.begin_run artifact.a_dist;
  Interp.run_main artifact.a_ctx;
  Option.iter Fsc_dmp.Dist_kernel.sync_back artifact.a_dist;
  (* GPU: make host mirrors consistent at program end *)
  (match artifact.a_ctx.Interp.gpu with
  | Some g when artifact.a_target <> Gpu Gpu_initial ->
    Fsc_rt.Gpu_sim.sync_all_d2h g
  | _ -> ())

let shutdown artifact =
  (* drain in-flight native builds first — kernel plugins and the dist
     stage plugins alike: even a short run must leave its compiled
     plugins published in the cache for the next process *)
  List.iter
    (fun (_, impl) ->
      match impl with
      | Native_jit (_, nk) -> Fsc_codegen.Native.drain nk
      | _ -> ())
    artifact.a_kernels;
  Option.iter Fsc_dmp.Dist_kernel.drain artifact.a_dist;
  match artifact.a_ctx.Interp.pool with
  | Some p ->
    Fsc_rt.Domain_pool.shutdown p;
    artifact.a_ctx.Interp.pool <- None
  | None -> ()

(* Grid named [name] allocated during execution. *)
let buffer artifact name =
  List.assoc_opt name artifact.a_ctx.Interp.named_buffers

let buffer_exn artifact name =
  match buffer artifact name with
  | Some b -> b
  | None ->
    driver_error
      "no buffer named '%s' was allocated during execution (known \
       buffers: %s)"
      name
      (match artifact.a_ctx.Interp.named_buffers with
      | [] -> "none"
      | bs -> String.concat ", " (List.map fst bs))
