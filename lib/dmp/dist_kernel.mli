(** Distributed execution of compiled stencil kernels: the runtime half
    of the paper's DMP lowering. Kernel specs from
    {!Fsc_rt.Kernel_compile} are re-targeted at SPMD execution over a
    {!Decomp} — each rank runs ownership-clipped local bounds through
    the closure or vector engine, with {!Dist_exec} supersteps providing
    the halo swaps.

    Coherence follows the GPU device-resident contract: buffers live
    scattered across ranks while distributed kernels run and are
    gathered back into the host globals only at {!sync_back} (end of
    run) or before a host-side fallback ({!run_fallback}). *)

module Kc = Fsc_rt.Kernel_compile
module Rt = Fsc_rt.Memref_rt

type engine =
  | E_closure  (** per-rank execution through the closure JIT *)
  | E_vector  (** per-rank execution through the row-bytecode engine *)

val engine_name : engine -> string

type state

(** [create ?pool ~ranks ~engine ()] — one state per linked artifact.
    Each stage runs as one {!Dist_exec} superstep: halos are exchanged,
    then every rank runs the stage's nests over its whole local
    interior (concurrently when [pool] is given). Exchanges are shaped
    automatically:
    - {b fusion}: a stage skips its halo exchange when every swap
      field's halos are already fresh — scattered or exchanged since
      last written — so e.g. the superstep right after a scatter pays
      no messages;
    - {b coalescing}: a stage's whole swap set travels as one message
      per neighbour per superstep behind a field-offset header;
    - {b footprint staling}: a written field's halos stay fresh when the
      stage's write footprint ({!Fsc_analysis.Footprint}) provably
      misses every mirrored boundary plane of the decomposition —
      interior-band or global-edge writes then fuse away the next
      exchange that whole-field tracking would pay.
    All of it preserves bitwise results. *)
val create :
  ?pool:Fsc_rt.Domain_pool.t -> ranks:int -> engine:engine -> unit -> state

(** The interior planes some rank's halo mirrors, per decomposed axis
    [(y planes, z planes)]: the first/last owned plane of every block
    that has a neighbour on that side. Exposed for tests. *)
val mirror_planes : Decomp.t -> int list * int list

(** Does a write with this global footprint invalidate any rank's halo?
    True iff the region covers a mirrored plane in some decomposed
    dimension ([ddims] indexes into the region; a region too short to
    constrain a decomposed dimension counts as covering). *)
val write_stales :
  ddims:int list ->
  planes:int list * int list ->
  Fsc_analysis.Footprint.region ->
  bool

(** Reset per-run coherence state. Call at the start of every program
    run: buffers are allocated fresh each run, so stale groups must not
    accumulate. *)
val begin_run : state -> unit

(** Gather every valid group back into the host's global buffers. Call
    once at the end of a program run. *)
val sync_back : state -> unit

(** Run a host-side (non-distributed) computation: gathers all valid
    groups first and marks them invalid so the next distributed kernel
    re-scatters. Used for kernels that cannot be distributed. *)
val run_fallback : state -> reason:string -> (unit -> 'a) -> 'a

(** Execute one compiled kernel distributed over the ranks, falling back
    to [host] (via {!run_fallback}) when the kernel's accesses cannot be
    split along the decomposed dimensions.
    @raise Decomp.Invalid_decomp when the buffers' grid cannot host the
    requested rank count. *)
val run_kernel :
  state ->
  name:string ->
  Kc.spec ->
  host:(unit -> unit) ->
  bufs:Rt.t array ->
  scalars:float array ->
  unit

type group_stats = {
  gs_dims : int list;  (** global buffer shape *)
  gs_py : int;
  gs_pz : int;
  gs_msgs : int;  (** halo messages since the last {!begin_run} *)
  gs_bytes : int;
}

type stats = {
  ds_ranks : int;
  ds_engine : engine;
  ds_groups : group_stats list;
  ds_dist_runs : int;  (** distributed kernel executions, cumulative *)
  ds_fallback_runs : int;
      (** kernel executions that ran on the host ({!run_fallback}),
          cumulative; equals the [dmp.fallbacks] counter's increments *)
  ds_exchanged_stages : int;
      (** supersteps that exchanged halos, cumulative *)
  ds_fused_stages : int;
      (** supersteps whose halo exchange was fused away (halos already
          fresh), cumulative *)
  ds_stales_avoided : int;
      (** stage writes whose footprint was proven off every mirrored
          plane, leaving the field's halos fresh; cumulative *)
  ds_vec_nests : int;
      (** vectorised / total nests over compiled per-rank runners *)
  ds_total_nests : int;
}

val stats : state -> stats
