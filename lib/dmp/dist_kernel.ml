(* Distributed execution of compiled stencil kernels.

   This is the runtime half of the paper's DMP lowering: a kernel spec
   produced by [Fsc_rt.Kernel_compile] from the serial stencil pipeline
   is re-targeted at SPMD execution over a [Decomp] — each rank runs the
   same nests over its ownership-clipped local bounds through the
   closure or vector engine, with [Dist_exec] supersteps providing the
   halo swaps and the comm/compute overlap.

   Coherence follows the GPU device-resident contract: buffer groups
   live scattered across ranks while distributed kernels run, and are
   gathered back into the host's global buffers only at the end of the
   run ([sync_back]) or when a non-distributable kernel needs the host
   copy ([run_fallback]). Host code reading grids between kernels inside
   one run sees stale data — exactly as with device-resident GPU
   buffers.

   A kernel distributes when, in every decomposed dimension (y, and z
   for 3-D fields), all stores hit the iteration cell exactly
   (offset 0), all loads stay within the single-cell halo, and no index
   is constant; anything else — including [Kernel_compile]'s own
   analysis fallbacks — runs on the host between a gather and a
   re-scatter. Nests are grouped into stages so that one halo swap per
   stage suffices: a nest that reads, at a nonzero decomposed offset, a
   buffer written earlier in the stage starts a new stage. Within a
   stage, nests that would overwrite data still being read through the
   halo (the Gauss-Seidel copy-back) run as the per-rank [finish] after
   all of the rank's windows — mirroring how the hand-MPI code orders
   sweep and copy-back. *)

module Kc = Fsc_rt.Kernel_compile
module Kb = Fsc_rt.Kernel_bytecode
module Rt = Fsc_rt.Memref_rt
module Pool = Fsc_rt.Domain_pool
module Obs = Fsc_obs.Obs
module Fp = Fsc_analysis.Footprint
module SS = Set.Make (String)

let c_fallbacks = Obs.counter "dmp.fallbacks"
let c_scatters = Obs.counter "dmp.scatters"
let c_gathers = Obs.counter "dmp.gathers"
let c_fused = Obs.counter "dmp.fused"
let c_stales_avoided = Obs.counter "dmp.stales_avoided"

type engine =
  | E_closure
  | E_vector

let engine_name = function
  | E_closure -> "closure"
  | E_vector -> "vector"

type runner = bufs:Rt.t array -> scalars:float array -> unit

(* One coherence group: all buffers sharing a global shape, scattered
   over one [Dist_exec] state. [g_valid] means the rank-local copies are
   authoritative; false means the host globals are (after a fallback)
   and the next distributed kernel must re-scatter. [g_fresh] tracks
   which fields' halo planes currently mirror their owners — fresh
   after a scatter or an exchange, stale once a stage writes the field
   — and is what superstep fusion keys on. *)
type group = {
  g_dims : int list;
  g_dx : Dist_exec.t;
  mutable g_valid : bool;
  mutable g_bufs : (int * Rt.t) list; (* buffer id -> global buffer *)
  mutable g_fresh : SS.t; (* fields with up-to-date halos *)
}

type stage_plan = {
  sg_windowed : Kc.nest list;
  sg_finish : Kc.nest list;
  sg_swap : int list; (* buffer arg indices whose halos the stage reads *)
  sg_writes : int list; (* buffer arg indices the stage stores to *)
  sg_write_regions : (int * Fp.region) list;
      (* per written buffer, the joined global write footprint — what
         halo-aware staling tests against the decomposition's mirrored
         planes *)
  sg_overlap_ok : bool;
}

type kplan = {
  kp_spec : Kc.spec;
  kp_stages : stage_plan list;
  (* (stage, rank) -> ownership-localized nests, windowed and finish *)
  kp_local_memo : (int * int, Kc.nest list * Kc.nest list) Hashtbl.t;
  (* (stage, rank, window) -> compiled sweep runner *)
  kp_sweep_memo : (int * int * Dist_exec.window, runner) Hashtbl.t;
  kp_finish_memo : (int * int, runner) Hashtbl.t;
}

type state = {
  dk_ranks : int;
  dk_engine : engine;
  dk_pool : Pool.t option;
  mutable dk_groups : group list;
  mutable dk_ids : (Rt.t * int) list; (* physical buffer -> id *)
  mutable dk_next_id : int;
  dk_plans : (string, (kplan, string) result) Hashtbl.t;
  (* cumulative statistics *)
  mutable dk_dist_runs : int;
  mutable dk_fallback_runs : int;
  mutable dk_overlap_stages : int;
  mutable dk_blocking_stages : int;
  mutable dk_fused_stages : int;
  mutable dk_stales_avoided : int;
  mutable dk_vec_nests : int;
  mutable dk_total_nests : int;
}

let create ?pool ~ranks ~engine () =
  { dk_ranks = ranks; dk_engine = engine; dk_pool = pool;
    dk_groups = []; dk_ids = [];
    dk_next_id = 0; dk_plans = Hashtbl.create 8; dk_dist_runs = 0;
    dk_fallback_runs = 0; dk_overlap_stages = 0; dk_blocking_stages = 0;
    dk_fused_stages = 0; dk_stales_avoided = 0; dk_vec_nests = 0;
    dk_total_nests = 0 }

let buf_id st b =
  let rec find = function
    | [] -> None
    | (b', id) :: tl -> if b' == b then Some id else find tl
  in
  match find st.dk_ids with
  | Some id -> id
  | None ->
    let id = st.dk_next_id in
    st.dk_next_id <- id + 1;
    st.dk_ids <- (b, id) :: st.dk_ids;
    id

let field_name id = "b" ^ string_of_int id

(* ------------------------------------------------------------------ *)
(* Kernel planning: distributability, stages, windowed/finish split    *)
(* ------------------------------------------------------------------ *)

exception Not_distributable of string

let ndis fmt = Printf.ksprintf (fun m -> raise (Not_distributable m)) fmt

let decomposed_dims field_rank = if field_rank = 2 then [ 1 ] else [ 1; 2 ]

let rec walk_loads f = function
  | Kc.F_load (b, idx) -> f b idx
  | Kc.F_unary (_, e) -> walk_loads f e
  | Kc.F_binary (_, a, b) ->
    walk_loads f a;
    walk_loads f b
  | Kc.F_scalar _ | Kc.F_const _ | Kc.F_ivf _ -> ()

(* Buffers a nest reads at a nonzero offset in a decomposed dimension:
   these reads cross rank boundaries and need fresh halos. *)
let offset_reads ~ddims nest =
  let acc = ref [] in
  List.iter
    (fun s ->
      walk_loads
        (fun b idx ->
          List.iteri
            (fun d form ->
              match form with
              | Kc.Iv (_, off) when off <> 0 && List.mem d ddims ->
                acc := b :: !acc
              | _ -> ())
            idx)
        s.Kc.st_expr)
    nest.Kc.n_stores;
  List.sort_uniq compare !acc

let writes nest = List.map (fun s -> s.Kc.st_buf) nest.Kc.n_stores

(* Every decomposed-dim index must be the iteration variable of the loop
   walking that dimension: offset 0 for stores, |offset| <= 1 (the halo
   width) for loads. Constant planes and transposed index use would need
   per-rank index rewriting beyond halo exchange. *)
let check_nest ~ddims nest =
  let dim_of_level =
    List.map (fun l -> (l.Kc.l_level, l.Kc.l_dim)) nest.Kc.n_loops
  in
  let check ~store what idx =
    List.iteri
      (fun d form ->
        if List.mem d ddims then
          match form with
          | Kc.Cst _ ->
            ndis "%s uses a constant index in decomposed dimension %d"
              what d
          | Kc.Iv (lvl, off) -> (
            match List.assoc_opt lvl dim_of_level with
            | Some ld when ld = d ->
              if store && off <> 0 then
                ndis "%s stores at offset %d in decomposed dimension %d"
                  what off d
              else if (not store) && abs off > 1 then
                ndis
                  "%s reads at offset %d in decomposed dimension %d \
                   (beyond the halo width of 1)"
                  what off d
            | _ ->
              ndis
                "%s indexes decomposed dimension %d with the induction \
                 variable of another dimension's loop"
                what d))
      idx
  in
  List.iter
    (fun s ->
      check ~store:true
        (Printf.sprintf "store to buffer %d" s.Kc.st_buf)
        s.Kc.st_index;
      walk_loads
        (fun b idx ->
          check ~store:false (Printf.sprintf "load of buffer %d" b) idx)
        s.Kc.st_expr)
    nest.Kc.n_stores

(* Group nests into stages needing one halo swap each: a nest reading,
   at a nonzero decomposed offset, a buffer written earlier in the
   current stage needs halos of *this stage's* data and starts a new
   stage. *)
let split_stages ~ddims nests =
  let stages = ref [] and cur = ref [] and written = ref [] in
  List.iter
    (fun nest ->
      let reads = offset_reads ~ddims nest in
      if !cur <> [] && List.exists (fun b -> List.mem b !written) reads
      then begin
        stages := List.rev !cur :: !stages;
        cur := [];
        written := []
      end;
      cur := nest :: !cur;
      written := writes nest @ !written)
    nests;
  if !cur <> [] then stages := List.rev !cur :: !stages;
  List.rev !stages

(* Within a stage, a nest that writes a buffer an earlier nest reads at
   a nonzero decomposed offset (the copy-back overwriting the sweep's
   input) must wait until every window of the rank is swept: it and all
   later nests run in the per-rank finish phase. *)
let split_phase ~ddims nests =
  let rec go acc earlier_reads = function
    | [] -> (List.rev acc, [])
    | nest :: tl ->
      if List.exists (fun b -> List.mem b earlier_reads) (writes nest)
      then (List.rev acc, nest :: tl)
      else go (nest :: acc) (offset_reads ~ddims nest @ earlier_reads) tl
  in
  go [] [] nests

(* A stage may overlap comm with compute only if its windowed nests stay
   within the interior in every decomposed dimension: the overlap
   windows cover interior cells only, so boundary-plane iterations (an
   initialisation nest writing index 0 / n+1) must run under the
   blocking whole-sweep. *)
let stage_overlap_ok ~ddims ~global nests =
  let _, ny, nz = global in
  List.for_all
    (fun nest ->
      List.for_all
        (fun l ->
          if List.mem l.Kc.l_dim ddims then
            let n_d = if l.Kc.l_dim = 1 then ny else nz in
            l.Kc.l_lb >= 1 && l.Kc.l_ub <= n_d + 1
          else true)
        nest.Kc.n_loops)
    nests

let plan_spec spec ~field_rank ~global =
  let ddims = decomposed_dims field_rank in
  List.iter (check_nest ~ddims) spec.Kc.k_nests;
  split_stages ~ddims spec.Kc.k_nests
  |> List.map (fun nests ->
         let windowed, finish = split_phase ~ddims nests in
         let swap =
           List.sort_uniq compare
             (List.concat_map (offset_reads ~ddims) nests)
         in
         let stage_writes =
           List.sort_uniq compare (List.concat_map writes nests)
         in
         (* join the global write footprints of the stage's nests, per
            buffer: stores are offset-0 in decomposed dimensions
            ([check_nest]), so the global loop bounds bound exactly the
            planes any rank can write *)
         let write_regions =
           List.fold_left
             (fun acc nest ->
               let fp = Fp.of_nest nest in
               List.fold_left
                 (fun acc (bi, r) ->
                   match List.assoc_opt bi acc with
                   | None -> (bi, r) :: acc
                   | Some prev ->
                     (bi, Fp.join_region prev r) :: List.remove_assoc bi acc)
                 acc fp.Fp.nf_writes)
             [] nests
         in
         { sg_windowed = windowed; sg_finish = finish; sg_swap = swap;
           sg_writes = stage_writes; sg_write_regions = write_regions;
           sg_overlap_ok = stage_overlap_ok ~ddims ~global windowed })

(* ------------------------------------------------------------------ *)
(* Halo-aware staling                                                  *)
(* ------------------------------------------------------------------ *)

(* The interior planes some rank's halo mirrors: per decomposed axis,
   the first/last owned plane of every block that has a neighbour on
   that side. Global boundary planes (1 and n at the grid edge) are
   never mirrored — no rank's halo holds them. *)
let mirror_planes decomp =
  let _, ny, nz = decomp.Decomp.global in
  let nranks = Decomp.nranks decomp in
  let ys = ref [] and zs = ref [] in
  for r = 0 to nranks - 1 do
    let (_, _), (yl, yh), (zl, zh) = Decomp.local_range decomp r in
    if yl > 1 then ys := yl :: !ys;
    if yh < ny then ys := yh :: !ys;
    if zl > 1 then zs := zl :: !zs;
    if zh < nz then zs := zh :: !zs
  done;
  (List.sort_uniq compare !ys, List.sort_uniq compare !zs)

(* Does a write with this global footprint invalidate any rank's halo?
   Only when the written region covers a mirrored plane in some
   decomposed dimension (halo planes span the full cross-section, so
   per-axis intersection is sound). Buffer index = global index: the
   (0:n+1) allocation puts interior plane p at buffer index p. A region
   too short to constrain a decomposed dimension is treated as Top. *)
let write_stales ~ddims ~planes:(planes_y, planes_z) region =
  List.exists
    (fun d ->
      let planes = if d = 1 then planes_y else planes_z in
      match List.nth_opt region d with
      | None -> planes <> []
      | Some dim -> List.exists (Fp.dim_contains dim) planes)
    ddims

let plan st spec ~field_rank ~global ~name =
  match Hashtbl.find_opt st.dk_plans name with
  | Some r -> r
  | None ->
    let r =
      match plan_spec spec ~field_rank ~global with
      | stages ->
        Ok
          { kp_spec = spec; kp_stages = stages;
            kp_local_memo = Hashtbl.create 16;
            kp_sweep_memo = Hashtbl.create 64;
            kp_finish_memo = Hashtbl.create 16 }
      | exception Not_distributable reason -> Error reason
    in
    Hashtbl.add st.dk_plans name r;
    r

(* ------------------------------------------------------------------ *)
(* Per-rank localization                                               *)
(* ------------------------------------------------------------------ *)

exception Empty_nest

(* Clip a nest's decomposed-dim loop bounds to the rank's ownership and
   translate to local coordinates. A rank executes the iterations for
   cells it owns; ranks at a global boundary also execute the loop's
   boundary-plane iterations (global array index 0 / n+1), which map to
   their outer halo planes. [F_ivf] terms (float of the global iteration
   index) are rebased so per-rank arithmetic reproduces global values
   bitwise. *)
let localize_nest ~decomp ~ddims ~rank nest =
  let (_, _), (yl, yh), (zl, zh) = Decomp.local_range decomp rank in
  let _, ny, nz = decomp.Decomp.global in
  let range_of d = if d = 1 then (yl, yh, ny) else (zl, zh, nz) in
  try
    let shifts = ref [] in
    let loops =
      List.map
        (fun l ->
          if List.mem l.Kc.l_dim ddims then begin
            let gl, gh, n_d = range_of l.Kc.l_dim in
            let lo_g = if gl = 1 then max l.Kc.l_lb 0 else max l.Kc.l_lb gl in
            let hi_g =
              if gh = n_d then min l.Kc.l_ub (n_d + 2)
              else min l.Kc.l_ub (gh + 1)
            in
            let lb = lo_g - (gl - 1) and ub = hi_g - (gl - 1) in
            if lb >= ub then raise Empty_nest;
            if gl <> 1 then shifts := (l.Kc.l_level, gl - 1) :: !shifts;
            { l with Kc.l_lb = lb; l_ub = ub }
          end
          else l)
        nest.Kc.n_loops
    in
    let rec shift_expr e =
      match e with
      | Kc.F_ivf (lvl, off) -> (
        match List.assoc_opt lvl !shifts with
        | Some s -> Kc.F_ivf (lvl, off + s)
        | None -> e)
      | Kc.F_unary (op, a) -> Kc.F_unary (op, shift_expr a)
      | Kc.F_binary (op, a, b) ->
        Kc.F_binary (op, shift_expr a, shift_expr b)
      | Kc.F_load _ | Kc.F_scalar _ | Kc.F_const _ -> e
    in
    let stores =
      if !shifts = [] then nest.Kc.n_stores
      else
        List.map
          (fun s -> { s with Kc.st_expr = shift_expr s.Kc.st_expr })
          nest.Kc.n_stores
    in
    Some { nest with Kc.n_loops = loops; n_stores = stores }
  with Empty_nest -> None

(* Restrict a localized nest to one sweep window. Windows cover the
   local interior; when a window touches the local edge it absorbs the
   adjacent boundary-plane iterations (only present in the bounds on
   global-boundary ranks). *)
let clip_nest ~ddims ~extents:(ly, lz) ~w nest =
  try
    Some
      { nest with
        Kc.n_loops =
          List.map
            (fun l ->
              if List.mem l.Kc.l_dim ddims then begin
                let wlo, whi, n =
                  if l.Kc.l_dim = 1 then
                    (w.Dist_exec.w_jlo, w.Dist_exec.w_jhi, ly)
                  else (w.Dist_exec.w_klo, w.Dist_exec.w_khi, lz)
                in
                let lo = if wlo = 1 then 0 else wlo in
                let hi = if whi = n then n + 2 else whi + 1 in
                let lb = max l.Kc.l_lb lo and ub = min l.Kc.l_ub hi in
                if lb >= ub then raise Empty_nest;
                { l with Kc.l_lb = lb; l_ub = ub }
              end
              else l)
            nest.Kc.n_loops }
  with Empty_nest -> None

(* ------------------------------------------------------------------ *)
(* Runner compilation (memoized; built on the caller thread only)      *)
(* ------------------------------------------------------------------ *)

let noop_runner ~bufs:_ ~scalars:_ = ()

(* Per-rank execution passes no pool: each rank already runs inside one
   pool worker, and the vector engine's row loops are the parallelism
   within the rank's own cache. *)
let compile_runner st spec nests =
  match nests with
  | [] -> noop_runner
  | _ -> (
    let sub = { spec with Kc.k_nests = nests } in
    match st.dk_engine with
    | E_closure -> fun ~bufs ~scalars -> Kc.run sub ~bufs ~scalars ()
    | E_vector ->
      let vplan = Kb.compile_spec sub in
      st.dk_total_nests <- st.dk_total_nests + Kb.nest_count vplan;
      st.dk_vec_nests <- st.dk_vec_nests + Kb.vectorised_nests vplan;
      fun ~bufs ~scalars -> Kb.run vplan ~bufs ~scalars ())

let localized st kplan ~decomp ~ddims ~stage_idx ~rank =
  match Hashtbl.find_opt kplan.kp_local_memo (stage_idx, rank) with
  | Some r -> r
  | None ->
    ignore st;
    let stage = List.nth kplan.kp_stages stage_idx in
    let loc = List.filter_map (localize_nest ~decomp ~ddims ~rank) in
    let r = (loc stage.sg_windowed, loc stage.sg_finish) in
    Hashtbl.add kplan.kp_local_memo (stage_idx, rank) r;
    r

let sweep_runner st kplan ~decomp ~ddims ~stage_idx ~rank ~w =
  match Hashtbl.find_opt kplan.kp_sweep_memo (stage_idx, rank, w) with
  | Some r -> r
  | None ->
    let windowed, _ = localized st kplan ~decomp ~ddims ~stage_idx ~rank in
    let _, ly, lz = Decomp.local_extents decomp rank in
    let nests =
      List.filter_map (clip_nest ~ddims ~extents:(ly, lz) ~w) windowed
    in
    let r = compile_runner st kplan.kp_spec nests in
    Hashtbl.add kplan.kp_sweep_memo (stage_idx, rank, w) r;
    r

let finish_runner st kplan ~decomp ~ddims ~stage_idx ~rank =
  match Hashtbl.find_opt kplan.kp_finish_memo (stage_idx, rank) with
  | Some r -> r
  | None ->
    let _, finish = localized st kplan ~decomp ~ddims ~stage_idx ~rank in
    let r = compile_runner st kplan.kp_spec finish in
    Hashtbl.add kplan.kp_finish_memo (stage_idx, rank) r;
    r

(* ------------------------------------------------------------------ *)
(* Coherence groups                                                    *)
(* ------------------------------------------------------------------ *)

(* Scattering copies the coherent global buffer, halo planes included,
   so immediately after a scatter every rank's halos mirror their
   owners: the field is fresh and the next superstep's exchange of it
   can be fused away. *)
let scatter g name gbuf =
  Obs.incr c_scatters;
  Dist_exec.set_field_from_global g.g_dx name gbuf;
  g.g_fresh <- SS.add name g.g_fresh

let global_of_dims dims =
  match dims with
  | [ d0; d1 ] -> (d0 - 2, d1 - 2, 1)
  | [ d0; d1; d2 ] -> (d0 - 2, d1 - 2, d2 - 2)
  | _ -> invalid_arg "Dist_kernel.global_of_dims"

(* Find or build the coherence group for a buffer shape. Building one
   creates the decomposition for this shape, which raises
   [Decomp.Invalid_decomp] when the grid cannot host [dk_ranks] ranks. *)
let group_for st dims =
  match List.find_opt (fun g -> g.g_dims = dims) st.dk_groups with
  | Some g -> g
  | None ->
    let field_rank = List.length dims in
    let decomp = Decomp.create ~global:(global_of_dims dims) ~ranks:st.dk_ranks in
    let dx =
      Dist_exec.create ?pool:st.dk_pool ~field_rank decomp ~fields:[]
        ~init:(fun _ _ -> 0.0)
    in
    let g =
      { g_dims = dims; g_dx = dx; g_valid = true; g_bufs = [];
        g_fresh = SS.empty }
    in
    st.dk_groups <- g :: st.dk_groups;
    g

let ensure_scattered st g bufs =
  if not g.g_valid then begin
    (* the host globals are authoritative after a fallback *)
    g.g_fresh <- SS.empty;
    List.iter (fun (id, gb) -> scatter g (field_name id) gb) g.g_bufs;
    g.g_valid <- true
  end;
  Array.iter
    (fun b ->
      let id = buf_id st b in
      if not (List.mem_assoc id g.g_bufs) then begin
        g.g_bufs <- (id, b) :: g.g_bufs;
        scatter g (field_name id) b
      end)
    bufs

let gather_group g =
  if g.g_valid then begin
    List.iter
      (fun (id, gb) ->
        Obs.incr c_gathers;
        Dist_exec.gather_into g.g_dx (field_name id) gb)
      g.g_bufs;
    g.g_valid <- false
  end

(* ------------------------------------------------------------------ *)
(* Execution protocol                                                  *)
(* ------------------------------------------------------------------ *)

let begin_run st =
  st.dk_groups <- [];
  st.dk_ids <- [];
  st.dk_next_id <- 0

let sync_back st = List.iter gather_group st.dk_groups

let run_fallback st ~reason:_ f =
  st.dk_fallback_runs <- st.dk_fallback_runs + 1;
  Obs.incr c_fallbacks;
  sync_back st;
  f ()

let run_dist st g kplan ~bufs ~scalars =
  st.dk_dist_runs <- st.dk_dist_runs + 1;
  let dx = g.g_dx in
  let decomp = dx.Dist_exec.decomp in
  let ddims = decomposed_dims dx.Dist_exec.field_rank in
  let nranks = Decomp.nranks decomp in
  let names =
    Array.map (fun b -> field_name (buf_id st b)) bufs
  in
  let local_bufs =
    Array.init nranks (fun r ->
        Array.map (fun nm -> Dist_exec.field dx.Dist_exec.ranks.(r) nm) names)
  in
  let arg_names bis =
    List.filter_map
      (fun bi -> if bi < Array.length names then Some names.(bi) else None)
      bis
  in
  let planes = mirror_planes decomp in
  (* Build the whole invocation — every stage's superstep — as one phase
     list, executed by a single [Dist_exec.run_phases] call: the pool is
     launched once per kernel invocation, not once per phase. The freshness/fusion decisions below are purely
     schedule-level, so they are made here at build time. *)
  let phases =
    List.concat
      (List.mapi
         (fun stage_idx stage ->
           let swap_fields = arg_names stage.sg_swap in
           (* Superstep fusion: a swap field whose halos are already
              fresh — scattered or exchanged since last written — need
              not be exchanged again. When the whole swap set is fresh
              the stage pays no exchange at all (the fused superstep is
              a single compute phase). Dependence distances are within
              the one-cell halo by construction ([check_nest]), so
              freshness is exactly the remaining fusion condition. *)
           let stale =
             List.filter (fun n -> not (SS.mem n g.g_fresh)) swap_fields
           in
           let fused = swap_fields <> [] && stale = [] in
           (* Overlap whenever a pool runs the ranks concurrently and
              the stage's writes stay inside the interior. This mirrors
              the superstep's no-pool collapse: the runners below are
              keyed by window, so the window set must match the
              schedule the superstep will actually run. A fused stage
              has no communication to hide and runs the blocking
              whole-sweep windows. *)
           let mode =
             if (not fused) && stage.sg_overlap_ok && st.dk_pool <> None
             then Dist_exec.Overlap
             else Dist_exec.Blocking
           in
           if fused then begin
             st.dk_fused_stages <- st.dk_fused_stages + 1;
             Obs.incr c_fused
           end
           else begin
             match mode with
             | Dist_exec.Overlap ->
               st.dk_overlap_stages <- st.dk_overlap_stages + 1
             | Dist_exec.Blocking ->
               st.dk_blocking_stages <- st.dk_blocking_stages + 1;
               Obs.incr c_fallbacks
           end;
           (* the exchange refreshes every swap field; the stage's
              writes then stale the written fields' halos — but only
              the writes whose footprint covers a mirrored plane.
              Stores are ownership-clipped to offset 0, so a write
              confined to non-mirrored planes (a global-boundary probe,
              an interior band short of any block edge) leaves every
              rank's halo mirroring its unchanged owner cells. *)
           let staling =
             List.filter
               (fun bi ->
                 match List.assoc_opt bi stage.sg_write_regions with
                 | None -> true
                 | Some region -> write_stales ~ddims ~planes region)
               stage.sg_writes
           in
           let avoided = List.length stage.sg_writes - List.length staling in
           if avoided > 0 then begin
             st.dk_stales_avoided <- st.dk_stales_avoided + avoided;
             Obs.add c_stales_avoided avoided
           end;
           let written = arg_names staling in
           g.g_fresh <- SS.union (SS.of_list swap_fields) g.g_fresh;
           g.g_fresh <- SS.diff g.g_fresh (SS.of_list written);
           (* compile every runner this superstep can need up front, on
              the caller: the memo tables are not thread-safe and the
              sweep callbacks run concurrently on pool workers *)
           let runners =
             Array.init nranks (fun rank ->
                 let windows =
                   match mode with
                   | Dist_exec.Blocking -> [ Dist_exec.interior dx rank ]
                   | Dist_exec.Overlap ->
                     if Dist_exec.overlap_capable dx rank then
                       Dist_exec.interior_block dx rank
                       :: Dist_exec.shells dx rank
                     else [ Dist_exec.interior dx rank ]
                 in
                 ( List.map
                     (fun w ->
                       ( w,
                         sweep_runner st kplan ~decomp ~ddims ~stage_idx
                           ~rank ~w ))
                     windows,
                   finish_runner st kplan ~decomp ~ddims ~stage_idx ~rank ))
           in
           Dist_exec.superstep_phases dx ~swap_fields:stale ~mode
             ~sweep:(fun ~rank w ->
               let sweeps, _ = runners.(rank) in
               (List.assoc w sweeps) ~bufs:local_bufs.(rank) ~scalars)
             ~finish:(fun ~rank ->
               let _, fin = runners.(rank) in
               fin ~bufs:local_bufs.(rank) ~scalars)
             ())
         kplan.kp_stages)
  in
  Dist_exec.run_phases dx phases

(* Execute one compiled kernel under the distributed target. [host] runs
   the kernel on the global buffers (the engine's normal serial path)
   and is used when the kernel does not distribute. *)
let run_kernel st ~name spec ~host ~bufs ~scalars =
  if Array.length bufs = 0 then host ()
  else
    let nd = Array.length bufs.(0).Rt.dims in
    if nd <> 2 && nd <> 3 then
      run_fallback st
        ~reason:(Printf.sprintf "%d-D buffers cannot be decomposed" nd)
        host
    else begin
      (* validates that all buffers share extents, as Kc.run would *)
      ignore (Kc.check_buffers bufs);
      let dims = Array.to_list bufs.(0).Rt.dims in
      let g = group_for st dims in
      match
        plan st spec ~field_rank:nd ~global:(global_of_dims dims) ~name
      with
      | Error reason -> run_fallback st ~reason host
      | Ok kplan ->
        ensure_scattered st g bufs;
        run_dist st g kplan ~bufs ~scalars
    end

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

type group_stats = {
  gs_dims : int list;
  gs_py : int;
  gs_pz : int;
  gs_msgs : int;
  gs_bytes : int;
}

type stats = {
  ds_ranks : int;
  ds_mode : Dist_exec.mode; (* Overlap iff a pool runs the ranks *)
  ds_engine : engine;
  ds_groups : group_stats list;
  ds_dist_runs : int; (* distributed kernel executions, cumulative *)
  ds_fallback_runs : int;
  ds_overlap_stages : int;
  ds_blocking_stages : int;
  ds_fused_stages : int; (* supersteps whose exchange was fused away *)
  ds_stales_avoided : int; (* writes footprint-proven off mirrored planes *)
  ds_thin_y_fallbacks : int; (* overlap fallbacks: active y axis < 3 *)
  ds_thin_z_fallbacks : int;
  ds_vec_nests : int; (* vectorised / total nests over compiled runners *)
  ds_total_nests : int;
}

let stats st =
  let thin_y, thin_z =
    List.fold_left
      (fun (ay, az) g ->
        let y, z = Dist_exec.fallback_reasons g.g_dx in
        (ay + y, az + z))
      (0, 0) st.dk_groups
  in
  { ds_ranks = st.dk_ranks;
    ds_mode =
      (if st.dk_pool = None then Dist_exec.Blocking else Dist_exec.Overlap);
    ds_engine = st.dk_engine;
    ds_groups =
      List.rev_map
        (fun g ->
          let msgs, bytes = Dist_exec.stats g.g_dx in
          { gs_dims = g.g_dims; gs_py = g.g_dx.Dist_exec.decomp.Decomp.py;
            gs_pz = g.g_dx.Dist_exec.decomp.Decomp.pz; gs_msgs = msgs;
            gs_bytes = bytes })
        st.dk_groups;
    ds_dist_runs = st.dk_dist_runs; ds_fallback_runs = st.dk_fallback_runs;
    ds_overlap_stages = st.dk_overlap_stages;
    ds_blocking_stages = st.dk_blocking_stages;
    ds_fused_stages = st.dk_fused_stages;
    ds_stales_avoided = st.dk_stales_avoided; ds_thin_y_fallbacks = thin_y;
    ds_thin_z_fallbacks = thin_z; ds_vec_nests = st.dk_vec_nests;
    ds_total_nests = st.dk_total_nests }
