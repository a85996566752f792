(* The native JIT tier: emit -> ocamlopt -> Dynlink, with the vector
   engine covering every gap.

   A [kernel] starts life unbound: strides are only known at the first
   call, so that call emits the source (strides, bounds, tile shapes
   and fusion decisions baked in), keys it into the content-addressed
   cache (digest over the emitted body plus the toolchain stamp) and
   starts a build. In [Async] mode the build runs on a background
   thread and the kernel serves calls from the vector engine until the
   native entries are ready; [Sync] mode (tests, benches) builds inline
   on the first call. Warm starts skip the compiler entirely: a stamped
   .cmxs sidecar in the cache is Dynlink'ed directly, and a key already
   registered in the shim (an earlier artifact in the same process) is
   reused without touching disk.

   v2 executes emitted *groups* (a nest, or several nests fused at emit
   time) rather than chunking around per-nest entries: the host hands
   each entry a [pfor] work-sharer — pool-backed when it holds a pool
   and the group's outer level is parallel, run-inline otherwise — and
   the plugin drives its own loops. Shift-fused groups are serial by
   construction; when the host has a real pool to feed it dispatches
   their members' standalone alternate entries instead.

   Artifacts whose emitted schedule contains blocked loops record the
   L2 budget that derived the tile shape in their stamp sidecar;
   startup revalidation drops them when the budget changed, so a
   machine-config change cannot leave stale tile shapes serving runs.

   The fallback chain never fails a run: toolchain missing, emit
   unsupported, compile error, Dynlink error, stale stamp, bounds
   validation failure, or a call whose buffer shapes differ from the
   bound ones — each drops to the vector engine, per nest where the
   failure is per-nest (emit/bounds) and per kernel otherwise. Every
   edge is counted on codegen.* Obs counters and reported per kernel
   through {!report} for --stats. *)

module Kc = Fsc_rt.Kernel_compile
module Kb = Fsc_rt.Kernel_bytecode
module Rt = Fsc_rt.Memref_rt
module Pool = Fsc_rt.Domain_pool
module Cache = Fsc_cache.Cache
module Obs = Fsc_obs.Obs
module Fp = Fsc_analysis.Footprint

let c_builds = Obs.counter "codegen.builds"
let c_build_errors = Obs.counter "codegen.build_errors"
let c_dynlink_errors = Obs.counter "codegen.dynlink_errors"
let c_cache_hits = Obs.counter "codegen.cache_hits"
let c_emit_fallbacks = Obs.counter "codegen.emit_fallbacks"
let c_bounds_fallbacks = Obs.counter "codegen.bounds_fallbacks"
let c_native_runs = Obs.counter "codegen.native_runs"
let c_fallback_runs = Obs.counter "codegen.fallback_runs"
let c_pending_runs = Obs.counter "codegen.pending_runs"
let c_guard_misses = Obs.counter "codegen.guard_misses"
let c_fp_proofs = Obs.counter "codegen.footprint_proofs"
let c_fused_nests = Obs.counter "codegen.fused_nests"
let c_tiled_nests = Obs.counter "codegen.tiled_nests"
let c_reuse_windows = Obs.counter "codegen.reuse_windows"
let c_copy_blits = Obs.counter "codegen.copy_blits"

(* Bumped whenever emitted code or the sidecar layout changes shape.
   v2: scheduling emitter (tiling/fusion), pfor entry ABI, string-keyed
   registration, tile-budget stamp suffix. *)
let format_version = 2

type mode =
  | Async
  | Sync

type origin =
  | Origin_built
  | Origin_cache
  | Origin_memo

type ready = {
  r_entries : (string * Sfc_native_shim.entry) list;
  r_build_ms : float;
  r_origin : origin;
}

type status =
  | Building
  | Ready of ready
  | Failed of string

type build = {
  b_key : string;
  b_stamp : string; (* full artifact stamp, incl. any tile-budget line *)
  mutable b_status : status;
  mutable b_thread : Thread.t option;
}

type ctx = {
  c_cache : Cache.t;
  c_mode : mode;
  c_toolchain : (Build.toolchain, string) result;
  c_l2_kb : int option; (* budget behind the current n_tile hints *)
  c_mutex : Mutex.t;
  c_cond : Condition.t;
  c_builds : (string, build) Hashtbl.t;
  c_stale_dropped : int; (* sidecar sets dropped by startup revalidation *)
}

(* Tiled artifacts append the L2 budget that derived their tile shape
   to the toolchain stamp; untiled artifacts stay budget-independent. *)
let budget_line kb = Printf.sprintf "\ntile-budget %d" kb

let artifact_stamp ~base ~tiled ~l2_kb =
  match (tiled, l2_kb) with
  | true, Some kb -> base ^ budget_line kb
  | _ -> base

let create ?cache ?(mode = Async) ?ocamlfind ?l2_kb () =
  let toolchain = Build.probe ?command:ocamlfind () in
  let cache =
    match cache with
    | Some c -> c
    | None -> Cache.create ~version:format_version ()
  in
  let dropped =
    (* startup revalidation: sweep sidecar sets whose toolchain stamp no
       longer matches, and tiled sets whose recorded L2 budget differs
       from the current one; with no toolchain nothing will load, so
       leave the (possibly still valid) artifacts for a future process *)
    match toolchain with
    | Ok tc ->
      let base = Build.stamp tc in
      let validate ~key:_ ~stamp =
        stamp = base
        ||
        (* a tile-budget suffix: valid iff it matches the current
           budget; with no budget configured any tiled artifact of this
           toolchain stays (we cannot tell it stale) *)
        (String.length stamp > String.length base
        && String.sub stamp 0 (String.length base) = base
        &&
        match l2_kb with
        | Some kb ->
          String.sub stamp (String.length base)
            (String.length stamp - String.length base)
          = budget_line kb
        | None ->
          let rest =
            String.sub stamp (String.length base)
              (String.length stamp - String.length base)
          in
          String.length rest > 13 && String.sub rest 0 13 = "\ntile-budget ")
      in
      Cache.revalidate_sidecars cache ~stamp:base ~validate
    | Error _ -> 0
  in
  { c_cache = cache; c_mode = mode; c_toolchain = toolchain; c_l2_kb = l2_kb;
    c_mutex = Mutex.create (); c_cond = Condition.create ();
    c_builds = Hashtbl.create 8; c_stale_dropped = dropped }

let cache ctx = ctx.c_cache
let stale_dropped ctx = ctx.c_stale_dropped

let toolchain_error ctx =
  match ctx.c_toolchain with Ok _ -> None | Error e -> Some e

(* ---------------- Dynlink (serialised process-wide) ---------------- *)

let dynlink_mutex = Mutex.create ()

(* Load [path] and resolve the entries it registered under [key]. If the
   key is already resident (an identical plugin loaded earlier, by any
   ctx) the load is skipped — module names are derived from the key, so
   the plugin would be a byte-identical duplicate. *)
let dynlink_key ~path ~key =
  Mutex.lock dynlink_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock dynlink_mutex)
    (fun () ->
      match Sfc_native_shim.find key with
      | Some entries -> Ok (entries, Origin_memo)
      | None -> (
        match Dynlink.loadfile_private path with
        | () -> (
          match Sfc_native_shim.find key with
          | Some entries -> Ok (entries, Origin_built)
          | None -> Error "plugin loaded but registered no entries")
        | exception Dynlink.Error e -> Error (Dynlink.error_message e)
        | exception e -> Error (Printexc.to_string e)))

(* ---------------- building ---------------- *)

let ms_since t0 = (Unix.gettimeofday () -. t0) *. 1000.

let finish ctx b status =
  Mutex.lock ctx.c_mutex;
  b.b_status <- status;
  Condition.broadcast ctx.c_cond;
  Mutex.unlock ctx.c_mutex

(* Warm path: a stamped .cmxs sidecar from a previous process. A stamp
   mismatch here (written between our startup revalidation and now)
   or a Dynlink failure drops the sidecar set and falls through to a
   fresh build. *)
let try_load_cached ctx b =
  let key = b.b_key in
  match Cache.find_sidecar ctx.c_cache ~key ~ext:"cmxs" with
  | None -> None
  | Some path ->
    if Cache.read_sidecar ctx.c_cache ~key ~ext:"stamp" <> Some b.b_stamp
    then begin
      Cache.remove_sidecars ctx.c_cache ~key;
      None
    end
    else (
      match dynlink_key ~path ~key with
      | Ok (entries, origin) ->
        Obs.incr c_cache_hits;
        let origin = if origin = Origin_memo then Origin_memo else Origin_cache
        in
        Some (entries, origin)
      | Error _ ->
        (* corrupt or incompatible on-disk plugin: drop it and rebuild *)
        Obs.incr c_dynlink_errors;
        Cache.remove_sidecars ctx.c_cache ~key;
        None)

let workdir_counter = Atomic.make 0

(* A private build directory, preferably under the cache dir so the
   final rename of the .cmxs stays on one filesystem. *)
let make_workdir ctx ~key =
  let base =
    match Cache.dir ctx.c_cache with
    | Some d -> d
    | None -> Filename.get_temp_dir_name ()
  in
  let dir =
    Filename.concat base
      (Printf.sprintf ".build.%s.%d.%d" key (Unix.getpid ())
         (Atomic.fetch_and_add workdir_counter 1))
  in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      try Unix.mkdir d 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  mkdir_p dir;
  dir

let remove_dir dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | files ->
    Array.iter
      (fun f ->
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      files;
    (try Unix.rmdir dir with Unix.Unix_error _ | Sys_error _ -> ())

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

(* Cold path: compile in a workdir, publish .ml/.cmxs/.stamp sidecars
   atomically, then Dynlink the published plugin. *)
let build_fresh ctx tc b emit ~t0 =
  let key = b.b_key in
  let workdir = make_workdir ctx ~key in
  Fun.protect ~finally:(fun () -> remove_dir workdir) @@ fun () ->
  let base = "sfc_native_" ^ key in
  let ml = Filename.concat workdir (base ^ ".ml") in
  let cmxs = Filename.concat workdir (base ^ ".cmxs") in
  let source = Emit.module_source emit ~key in
  match write_file ml source with
  | exception Sys_error e -> Failed ("cannot write source: " ^ e)
  | () -> (
    match Build.compile tc ~ml ~out:cmxs with
    | Error e ->
      Obs.incr c_build_errors;
      Failed e
    | Ok () ->
      ignore (Cache.put_sidecar ctx.c_cache ~key ~ext:"ml" source);
      let path =
        match Cache.adopt_sidecar ctx.c_cache ~key ~ext:"cmxs" ~file:cmxs with
        | Some published ->
          (* the stamp lands last: an interrupted publish leaves an
             unstamped set that the next revalidation sweeps away *)
          ignore (Cache.put_sidecar ctx.c_cache ~key ~ext:"stamp" b.b_stamp);
          published
        | None -> cmxs (* diskless cache: load straight from the workdir *)
      in
      (match dynlink_key ~path ~key with
      | Ok (entries, _) ->
        Ready
          { r_entries = entries; r_build_ms = ms_since t0;
            r_origin = Origin_built }
      | Error e ->
        Obs.incr c_dynlink_errors;
        Failed ("Dynlink: " ^ e)))

let do_build ctx b emit =
  let t0 = Unix.gettimeofday () in
  let status =
    match ctx.c_toolchain with
    | Error e -> Failed ("toolchain unavailable: " ^ e)
    | Ok tc -> (
      match Sfc_native_shim.find b.b_key with
      | Some entries ->
        (* identical plugin already resident in this process *)
        Ready
          { r_entries = entries; r_build_ms = 0.; r_origin = Origin_memo }
      | None -> (
        match try_load_cached ctx b with
        | Some (entries, origin) ->
          Ready
            { r_entries = entries; r_build_ms = ms_since t0;
              r_origin = origin }
        | None -> build_fresh ctx tc b emit ~t0))
  in
  finish ctx b status

let ensure_build ctx ~key ~stamp emit =
  Mutex.lock ctx.c_mutex;
  match Hashtbl.find_opt ctx.c_builds key with
  | Some b ->
    Mutex.unlock ctx.c_mutex;
    b
  | None ->
    let b =
      { b_key = key; b_stamp = stamp; b_status = Building; b_thread = None }
    in
    Hashtbl.add ctx.c_builds key b;
    Mutex.unlock ctx.c_mutex;
    Obs.incr c_builds;
    (match ctx.c_mode with
    | Sync -> do_build ctx b emit
    | Async ->
      let t = Thread.create (fun () -> do_build ctx b emit) () in
      Mutex.lock ctx.c_mutex;
      b.b_thread <- Some t;
      Mutex.unlock ctx.c_mutex);
    b

(* ---------------- kernels ---------------- *)

type bind_result =
  | Bind_fallback of string (* emit failed / no toolchain: all-vector *)
  | Bind_built of {
      bb_build : build;
      bb_groups : Emit.group list;
      bb_emit_skipped : (int * string) list;
      bb_bounds_skipped : (int * string) list;
      bb_refused : (int * string) list;
      bb_tiled : (int * int) list;
      bb_reused : int;
      bb_blits : int;
      bb_unrolled : int;
      bb_fp_proved : int list;
          (* nests whose accesses the footprint proved in-extent, so the
             flat-offset bounds scan was elided *)
    }

type bind = {
  bd_nbufs : int;
  bd_dims : int array;
  bd_result : bind_result;
}

type kernel = {
  k_ctx : ctx;
  k_name : string;
  k_spec : Kc.spec;
  k_plan : Kb.plan; (* the vector tier: fallback at every level *)
  k_nnests : int;
  k_mutex : Mutex.t;
  mutable k_bind : bind option;
  mutable k_pending_runs : int; (* calls served by vector mid-build *)
  mutable k_guard_misses : int; (* calls whose shapes differ from bind *)
  mutable k_par_mode : string; (* how the last native run work-shared *)
}

let prepare ctx ~name spec =
  { k_ctx = ctx; k_name = name; k_spec = spec;
    k_plan = Kb.compile_spec spec;
    k_nnests = List.length spec.Kc.k_nests; k_mutex = Mutex.create ();
    k_bind = None; k_pending_runs = 0; k_guard_misses = 0;
    k_par_mode = "" }

let name k = k.k_name
let plan k = k.k_plan

(* Whole-space bounds validation, mirroring the vector engine's bind
   discipline: emitted bodies are unsafe, so prove every access of the
   full iteration space in range before ever dispatching to one.
   Strides are positive (column-major products of extents), so the
   extreme flat offsets sit at the loop bounds. *)
let validate_nest ~strides ~(bufs : Rt.t array) (nest : Kc.nest) =
  if
    List.exists
      (fun (l : Kc.loop_spec) -> l.Kc.l_ub <= l.Kc.l_lb)
      nest.Kc.n_loops
  then Ok () (* empty space: the nest executes nothing *)
  else begin
    let base_lo = ref 0 and base_hi = ref 0 in
    List.iter
      (fun (l : Kc.loop_spec) ->
        let s = strides.(l.Kc.l_dim) in
        base_lo := !base_lo + (l.Kc.l_lb * s);
        base_hi := !base_hi + ((l.Kc.l_ub - 1) * s))
      nest.Kc.n_loops;
    let rec scan acc (e : Kc.fexpr) =
      match e with
      | Kc.F_load (bi, idxs) -> (bi, Kc.delta_of strides idxs) :: acc
      | Kc.F_unary (_, a) -> scan acc a
      | Kc.F_binary (_, a, b) -> scan (scan acc a) b
      | Kc.F_const _ | Kc.F_scalar _ | Kc.F_ivf _ -> acc
    in
    let accesses =
      List.concat_map
        (fun (st : Kc.store_stmt) ->
          (st.Kc.st_buf, Kc.delta_of strides st.Kc.st_index)
          :: scan [] st.Kc.st_expr)
        nest.Kc.n_stores
    in
    List.fold_left
      (fun acc (bi, delta) ->
        match acc with
        | Error _ -> acc
        | Ok () ->
          if bi >= Array.length bufs then
            Error (Printf.sprintf "buffer %d not passed at the call" bi)
          else
            let n = Bigarray.Array1.dim bufs.(bi).Rt.data in
            let lo = !base_lo + delta and hi = !base_hi + delta in
            if lo < 0 || hi >= n then
              Error
                (Printf.sprintf
                   "access to buffer %d spans [%d, %d] outside [0, %d)" bi
                   lo hi n)
            else Ok ())
      (Ok ()) accesses
  end

let bind_kernel k ~bufs =
  let strides = Kc.check_buffers bufs in
  let dims = Array.copy bufs.(0).Rt.dims in
  (* check_buffers proved every buffer shares these extents *)
  let extents = Array.to_list dims in
  let fps = Array.of_list (Fp.of_spec k.k_spec) in
  (* A nest whose footprint keeps every access inside [0, extent) in
     every dimension cannot reach an out-of-range flat offset under the
     positive column-major strides: the per-dimension proof is strictly
     stronger than the flat-offset scan below (the scan also accepts
     row-wrapping accesses that merely stay inside the allocation), so
     it elides the scan but never replaces it as the fallback. *)
  let fp_proves fp =
    (not fp.Fp.nf_empty)
    &&
    let accesses = fp.Fp.nf_reads @ fp.Fp.nf_writes in
    accesses <> []
    && List.for_all
         (fun (bi, region) ->
           bi < Array.length bufs && Fp.region_within ~extents region)
         accesses
  in
  let result =
    match k.k_ctx.c_toolchain with
    | Error e -> Bind_fallback ("toolchain unavailable: " ^ e)
    | Ok tc ->
      if Array.length bufs < k.k_spec.Kc.k_num_bufs then
        Bind_fallback "call passes fewer buffers than the kernel spec"
      else (
        (* bake-time skip widening: an empty iteration space needs no
           generated code at all *)
        let pre_skip =
          List.concat
            (List.mapi
               (fun i _ ->
                 if fps.(i).Fp.nf_empty then
                   [ (i, "empty iteration space (footprint)") ]
                 else [])
               k.k_spec.Kc.k_nests)
        in
        match
          Emit.emit ~strides ~skip:pre_skip k.k_spec
        with
        | Error reason ->
          Obs.incr c_emit_fallbacks;
          Bind_fallback ("emit: " ^ reason)
        | Ok e ->
          let emit_skipped = Emit.skipped e in
          if emit_skipped <> [] then
            Obs.add c_emit_fallbacks (List.length emit_skipped);
          let fp_proved = ref [] in
          let bounds_skipped =
            List.filter_map
              (fun (i, _) ->
                if fp_proves fps.(i) then begin
                  fp_proved := i :: !fp_proved;
                  Obs.incr c_fp_proofs;
                  None
                end
                else
                  let nest = List.nth k.k_spec.Kc.k_nests i in
                  match validate_nest ~strides ~bufs nest with
                  | Ok () -> None
                  | Error why ->
                    Obs.incr c_bounds_fallbacks;
                    Some (i, why))
              (Emit.emitted e)
          in
          if List.length bounds_skipped = List.length (Emit.emitted e) then
            Bind_fallback "every nest failed whole-space bounds validation"
          else begin
            let key =
              Cache.digest k.k_ctx.c_cache
                [ "native"; string_of_int format_version; Build.stamp tc;
                  Emit.body e ]
            in
            let stamp =
              artifact_stamp ~base:(Build.stamp tc)
                ~tiled:(Emit.tiled e <> []) ~l2_kb:k.k_ctx.c_l2_kb
            in
            let fused =
              List.fold_left
                (fun n (g : Emit.group) ->
                  match g.Emit.g_nests with
                  | _ :: _ :: _ -> n + List.length g.Emit.g_nests
                  | _ -> n)
                0 (Emit.groups e)
            in
            Obs.add c_fused_nests fused;
            Obs.add c_tiled_nests (List.length (Emit.tiled e));
            Obs.add c_reuse_windows (Emit.reused e);
            Obs.add c_copy_blits (Emit.blits e);
            Bind_built
              { bb_build = ensure_build k.k_ctx ~key ~stamp e;
                bb_groups = Emit.groups e;
                bb_emit_skipped = emit_skipped;
                bb_bounds_skipped = bounds_skipped;
                bb_refused = Emit.refused e;
                bb_tiled = Emit.tiled e;
                bb_reused = Emit.reused e;
                bb_blits = Emit.blits e;
                bb_unrolled = Emit.unrolled e;
                bb_fp_proved = List.rev !fp_proved }
          end)
  in
  let b = { bd_nbufs = Array.length bufs; bd_dims = dims; bd_result = result }
  in
  k.k_bind <- Some b;
  b

(* ---------------- execution ---------------- *)

(* The run-inline work-sharer: one chunk covering the whole range,
   preserving sequential order for non-parallel outer levels. *)
let serial_pfor lo hi body = if hi > lo then body lo hi

let run_vector k ?pool ~bufs ~scalars () =
  Obs.incr c_fallback_runs;
  Kb.run k.k_plan ?pool ~bufs ~scalars ()

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Dispatch the Ready entries: whole groups where every member cleared
   bounds validation, the vector plan per nest everywhere else. The
   work-sharer handed to an entry is pool-backed only when the group's
   outer level is parallel and the pool has real workers; shift-fused
   groups (serial by construction) are replaced by their members'
   standalone entries in that case so the pool is not wasted. *)
let run_ready k r ~bb_groups ~bb_bounds_skipped ?pool ~bufs ~scalars () =
  let datas = Array.map (fun (b : Rt.t) -> b.Rt.data) bufs in
  let entry name = List.assoc_opt name r.r_entries in
  let pool_workers =
    match pool with Some p when Pool.size p > 1 -> Some p | _ -> None
  in
  let nest_parallel i =
    match (List.nth k.k_spec.Kc.k_nests i).Kc.n_loops with
    | outer :: _ -> outer.Kc.l_parallel
    | [] -> false
  in
  let used_pool = ref false in
  let pfor_for ~par =
    match (par, pool_workers) with
    | true, Some p ->
      used_pool := true;
      fun lo hi body -> Pool.parallel_for p ~lo ~hi body
    | _ -> serial_pfor
  in
  let run_single i =
    (* a nest outside any runnable group: vector plan *)
    Kb.run_nest k.k_plan i ?pool ~bufs ~scalars ()
  in
  let group_runnable (g : Emit.group) =
    List.for_all
      (fun i -> not (List.mem_assoc i bb_bounds_skipped))
      g.Emit.g_nests
    &&
    match g.Emit.g_kind with
    | Emit.G_shifted _ when pool_workers <> None && g.Emit.g_alts <> [] ->
      List.for_all (fun (_, an) -> entry an <> None) g.Emit.g_alts
    | _ -> entry g.Emit.g_fname <> None
  in
  let by_start = List.map (fun (g : Emit.group) -> (List.hd g.Emit.g_nests, g))
      bb_groups
  in
  let i = ref 0 in
  while !i < k.k_nnests do
    match List.assoc_opt !i by_start with
    | Some g when group_runnable g -> (
      (match (g.Emit.g_kind, pool_workers) with
      | Emit.G_shifted _, Some _ when g.Emit.g_alts <> [] ->
        (* real workers available: the members' standalone entries
           work-share their parallel outer levels instead of the
           serial fused schedule *)
        List.iter
          (fun (ni, an) ->
            match entry an with
            | Some e -> e datas scalars (pfor_for ~par:(nest_parallel ni))
            | None -> run_single ni)
          g.Emit.g_alts
      | _ -> (
        match entry g.Emit.g_fname with
        | Some e -> e datas scalars (pfor_for ~par:g.Emit.g_par)
        | None -> List.iter run_single g.Emit.g_nests));
      i := !i + List.length g.Emit.g_nests)
    | Some g ->
      (* a member failed bounds validation (or an entry is missing):
         the whole group falls back per nest *)
      List.iter run_single g.Emit.g_nests;
      i := !i + List.length g.Emit.g_nests
    | None ->
      run_single !i;
      incr i
  done;
  locked k.k_mutex (fun () ->
      k.k_par_mode <-
        (match (!used_pool, pool_workers) with
        | true, Some p -> Printf.sprintf "in-plugin pool(%d)" (Pool.size p)
        | _ -> "serial"))

let bind k ~bufs =
  match k.k_ctx.c_toolchain with
  | Error _ -> ()
  | Ok _ ->
    locked k.k_mutex (fun () ->
        if Option.is_none k.k_bind then ignore (bind_kernel k ~bufs))

let key k =
  match k.k_bind with
  | Some { bd_result = Bind_built { bb_build; _ }; _ } -> Some bb_build.b_key
  | _ -> None

let run k ?pool ~bufs ~scalars () =
  match k.k_ctx.c_toolchain with
  | Error _ -> run_vector k ?pool ~bufs ~scalars ()
  | Ok _ -> (
    let bind =
      locked k.k_mutex (fun () ->
          match k.k_bind with
          | Some b -> b
          | None -> bind_kernel k ~bufs)
    in
    if
      Array.length bufs <> bind.bd_nbufs
      || Array.length bufs = 0
      || bufs.(0).Rt.dims <> bind.bd_dims
    then begin
      locked k.k_mutex (fun () ->
          k.k_guard_misses <- k.k_guard_misses + 1);
      Obs.incr c_guard_misses;
      run_vector k ?pool ~bufs ~scalars ()
    end
    else
      match bind.bd_result with
      | Bind_fallback _ -> run_vector k ?pool ~bufs ~scalars ()
      | Bind_built { bb_build; bb_groups; bb_bounds_skipped; _ } -> (
        match bb_build.b_status with
        | Building ->
          locked k.k_mutex (fun () ->
              k.k_pending_runs <- k.k_pending_runs + 1);
          Obs.incr c_pending_runs;
          run_vector k ?pool ~bufs ~scalars ()
        | Failed _ -> run_vector k ?pool ~bufs ~scalars ()
        | Ready r ->
          Obs.incr c_native_runs;
          run_ready k r ~bb_groups ~bb_bounds_skipped ?pool ~bufs ~scalars ()))

(* ---------------- completion / reporting ---------------- *)

let is_building b =
  match b.b_status with Building -> true | Ready _ | Failed _ -> false

let await k =
  match k.k_bind with
  | Some { bd_result = Bind_built { bb_build; _ }; _ } ->
    let ctx = k.k_ctx in
    Mutex.lock ctx.c_mutex;
    while is_building bb_build do
      Condition.wait ctx.c_cond ctx.c_mutex
    done;
    Mutex.unlock ctx.c_mutex
  | _ -> ()

(* Wait for the build and reap its thread: called at artifact shutdown
   so even a short run leaves the compiled plugin published in the
   cache for the next process. *)
let drain k =
  await k;
  match k.k_bind with
  | Some { bd_result = Bind_built { bb_build; _ }; _ } -> (
    let t =
      locked k.k_ctx.c_mutex (fun () ->
          let t = bb_build.b_thread in
          bb_build.b_thread <- None;
          t)
    in
    match t with Some t -> Thread.join t | None -> ())
  | _ -> ()

type report = {
  rp_engine : string; (* "native" | "vector" | "mixed" *)
  rp_detail : string; (* one human line for --stats *)
  rp_build_ms : float option; (* Some only on a cold build *)
  rp_origin : origin option;
  rp_native_nests : int;
  rp_vector_nests : int;
  rp_total_nests : int;
  rp_fused_nests : int;
  rp_tile_rows : int option;
  rp_reuse_windows : int;
  rp_copy_blits : int;
  rp_par_mode : string option;
  rp_fp_proved : int;
  rp_pending_runs : int;
  rp_guard_misses : int;
}

let origin_text = function
  | Origin_built -> "cold build"
  | Origin_cache -> "warm cache hit"
  | Origin_memo -> "in-process reuse"

let report k =
  let total = k.k_nnests in
  (* nests outside [native] that the vector plan runs vectorised *)
  let vectorised ~native =
    let scalar = Kb.fallbacks k.k_plan in
    List.length
      (List.filter
         (fun i -> not (List.mem i native || List.mem_assoc i scalar))
         (List.init total Fun.id))
  in
  let vector detail =
    { rp_engine = "vector"; rp_detail = detail; rp_build_ms = None;
      rp_origin = None; rp_native_nests = 0;
      rp_vector_nests = vectorised ~native:[]; rp_total_nests = total;
      rp_fused_nests = 0; rp_tile_rows = None; rp_reuse_windows = 0;
      rp_copy_blits = 0; rp_par_mode = None; rp_fp_proved = 0;
      rp_pending_runs = k.k_pending_runs; rp_guard_misses = k.k_guard_misses }
  in
  match k.k_ctx.c_toolchain with
  | Error e -> vector (Printf.sprintf "vector (native unavailable: %s)" e)
  | Ok _ -> (
    match k.k_bind with
    | None -> vector "vector (native tier never bound: kernel did not run)"
    | Some { bd_result = Bind_fallback reason; _ } ->
      vector (Printf.sprintf "vector (native fallback: %s)" reason)
    | Some { bd_result = Bind_built b; _ } -> (
      match b.bb_build.b_status with
      | Building -> vector "vector (native build pending)"
      | Failed e ->
        vector (Printf.sprintf "vector (native build failed: %s)" e)
      | Ready r ->
        let skipped = List.length b.bb_emit_skipped
                      + List.length b.bb_bounds_skipped
        in
        let native_idx =
          List.filter
            (fun i -> not (List.mem_assoc i b.bb_bounds_skipped))
            (List.concat_map (fun (g : Emit.group) -> g.Emit.g_nests)
               b.bb_groups)
        in
        let native = List.length native_idx in
        let cost =
          match r.r_origin with
          | Origin_built ->
            Printf.sprintf "%s %.1f ms" (origin_text r.r_origin)
              r.r_build_ms
          | o -> origin_text o
        in
        let fused =
          List.fold_left
            (fun n (g : Emit.group) ->
              match g.Emit.g_nests with
              | _ :: _ :: _ -> n + List.length g.Emit.g_nests
              | _ -> n)
            0 b.bb_groups
        in
        let sched =
          let parts =
            (if fused > 0 then
               let kinds =
                 List.filter_map
                   (fun (g : Emit.group) ->
                     match g.Emit.g_kind with
                     | Emit.G_aligned ->
                       Some
                         (Printf.sprintf "%d aligned"
                            (List.length g.Emit.g_nests))
                     | Emit.G_shifted d -> Some (Printf.sprintf "shift d=%d" d)
                     | Emit.G_single -> None)
                   b.bb_groups
               in
               [ Printf.sprintf "fused %d nests (%s)" fused
                   (String.concat ", " kinds) ]
             else [])
            @ (match b.bb_tiled with
              | (_, t) :: _ ->
                [ Printf.sprintf "tile %d rows x%d" t (List.length b.bb_tiled)
                ]
              | [] -> [])
            @ (if b.bb_reused > 0 then
                 [ Printf.sprintf "%d reuse windows" b.bb_reused ]
               else [])
            @ (if b.bb_blits > 0 then
                 [ Printf.sprintf "%d row blits" b.bb_blits ]
               else [])
            @ (if b.bb_unrolled > 0 then
                 [ Printf.sprintf "%d loops x4-unrolled" b.bb_unrolled ]
               else [])
            @ (if k.k_par_mode <> "" then [ k.k_par_mode ] else [])
          in
          match parts with
          | [] -> ""
          | _ -> ", " ^ String.concat ", " parts
        in
        let pending =
          if k.k_pending_runs > 0 then
            Printf.sprintf ", %d runs on vector while building"
              k.k_pending_runs
          else ""
        in
        let skips =
          match b.bb_emit_skipped @ b.bb_bounds_skipped with
          | [] -> ""
          | (i, why) :: _ ->
            Printf.sprintf ", %d nests on vector (nest %d: %s)" skipped i
              why
        in
        let fp_proved = List.length b.bb_fp_proved in
        let fp =
          if fp_proved > 0 then
            Printf.sprintf ", %d bounds guards elided by footprint"
              fp_proved
          else ""
        in
        { rp_engine = (if skipped = 0 then "native" else "mixed");
          rp_detail =
            Printf.sprintf "native %d/%d nests (%s%s%s%s%s)" native total
              cost sched fp pending skips;
          rp_build_ms =
            (match r.r_origin with
            | Origin_built -> Some r.r_build_ms
            | _ -> None);
          rp_origin = Some r.r_origin; rp_native_nests = native;
          rp_vector_nests = vectorised ~native:native_idx;
          rp_total_nests = total; rp_fused_nests = fused;
          rp_tile_rows =
            (match b.bb_tiled with (_, t) :: _ -> Some t | [] -> None);
          rp_reuse_windows = b.bb_reused; rp_copy_blits = b.bb_blits;
          rp_par_mode = (if k.k_par_mode <> "" then Some k.k_par_mode
                         else None);
          rp_fp_proved = fp_proved; rp_pending_runs = k.k_pending_runs;
          rp_guard_misses = k.k_guard_misses }))

let describe k = (report k).rp_detail
