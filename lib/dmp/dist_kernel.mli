(** Distributed execution of compiled stencil kernels: the runtime half
    of the paper's DMP lowering. Kernel specs from
    {!Fsc_rt.Kernel_compile} are re-targeted at SPMD execution over a
    {!Decomp} — each rank runs ownership-clipped local bounds, with
    {!Dist_exec} supersteps providing the halo swaps. The engine each
    stage's ranks run on comes from the {!factory} the linker supplies:
    per-rank closure or vector runners, or — for {e rank-uniform}
    stages, whose localized nests and local extents are identical on
    every rank — one native plugin shared by all ranks.

    Coherence follows the GPU device-resident contract: buffers live
    scattered across ranks while distributed kernels run and are
    gathered back into the host globals only at {!sync_back} (end of
    run) or before a host-side fallback ({!run_fallback}). *)

module Kc = Fsc_rt.Kernel_compile
module Rt = Fsc_rt.Memref_rt

type runner = bufs:Rt.t array -> scalars:float array -> unit

(** Per-rank nests of a stage, summed over its ranks, by the tier they
    run on now (an [Async] native plugin moves nests from vector to
    native once it is resident). *)
type nest_mix = {
  nm_native : int;  (** inside a native plugin *)
  nm_vector : int;  (** vectorised by the row-bytecode engine *)
  nm_total : int;
      (** every per-rank nest; 0 for factories that do not count
          (closure) *)
}

(** One stage's compiled code. *)
type stage_code = {
  sc_runners : runner array;
      (** indexed by rank; called concurrently on pool workers *)
  sc_body : string option;
      (** identity of the one body every rank shares (a native plugin's
          cache key); [None] for per-rank runners *)
  sc_mix : unit -> nest_mix;
  sc_drain : unit -> unit;  (** wait for background builds to land *)
}

(** How stages are compiled. [f_stage ~name ~uniform ~bufs specs] gets
    each rank's localized sub-spec ([specs.(r)]; ranks owning no
    iterations get an empty nest list) and the rank-local buffers of
    the first call ([bufs.(r)]), and is always called on the caller
    thread, before any rank runs — binding and synchronous builds
    belong there, never on pool workers. [uniform] is true when every
    rank's localized nests and local buffer extents are identical, so
    one body (one cache key) serves all ranks. Called once per stage
    per artifact. *)
type factory = {
  f_engine : string;  (** engine name shown by [--stats] *)
  f_stage :
    name:string ->
    uniform:bool ->
    bufs:Rt.t array array ->
    Kc.spec array ->
    stage_code;
}

(** Per-rank row-bytecode plans (closure fallback per nest). *)
val vector : factory

(** Per-rank closure-engine runners. *)
val closure : factory

type state

(** [create ?pool ~ranks ~factory ()] — one state per linked artifact.
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
  ?pool:Fsc_rt.Domain_pool.t -> ranks:int -> factory:factory -> unit -> state

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

(** Wait for every compiled stage's background work (in-flight native
    builds) to finish, so short runs still publish their plugins. *)
val drain : state -> unit

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

(** One compiled stage of one kernel. *)
type stage_stats = {
  ss_kernel : string;
  ss_stage : int;  (** index within the kernel's stages *)
  ss_uniform : bool;  (** one localized body serves every rank *)
  ss_body : string option;  (** {!stage_code.sc_body} *)
  ss_mix : nest_mix;
}

type stats = {
  ds_ranks : int;
  ds_engine : string;  (** the factory's {!factory.f_engine} *)
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
  ds_stages : stage_stats list;  (** compiled stages, in compile order *)
  ds_native_nests : int;
      (** per-rank nests over all stages by tier: native, vectorised,
          total (sums of the stages' {!nest_mix}) *)
  ds_vec_nests : int;
  ds_total_nests : int;
}

val stats : state -> stats
