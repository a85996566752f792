(** Concurrent SPMD executor: runs a halo-exchange computation over a
    {!Decomp.t} with simulated MPI, validating that the auto-parallelised
    pipeline computes the same grid as serial execution. Local grids
    carry one-cell halos in the decomposed (y, z) dimensions; the x
    (contiguous) dimension is never decomposed.

    Ranks execute in parallel on a {!Fsc_rt.Domain_pool}. A superstep is
    a list of phases; a pinned-team barrier publishes one phase's sends
    to the next phase's receives. Every superstep follows the paper's
    non-overlapped DMP lowering: all ranks post their halos, then each
    rank receives and computes over its whole local interior. Halo
    messages are coalesced: one message per neighbour per superstep
    carries the whole swap set. *)

module Mpi = Fsc_rt.Mpi_sim
module Rt = Fsc_rt.Memref_rt
module Pool = Fsc_rt.Domain_pool

type rank_state = {
  rs_rank : int;
  mutable rs_fields : (string * Rt.t) list;
      (** (lx+2)(ly+2)[(lz+2)] local grids *)
  rs_range : (int * int) * (int * int) * (int * int);
      (** global 1-based interior ranges owned by the rank *)
}

type t = {
  decomp : Decomp.t;
  mpi : Mpi.t;
  ranks : rank_state array;
  pool : Pool.t option;
  field_rank : int;  (** 2 or 3 *)
}

(** Create the distributed state. [init name (i,j,k)] gives the global
    value of field [name] at 0-based array coordinates (halos included;
    [k] is 0 for 2-D fields). With a pool, superstep phases run ranks
    concurrently; per-rank sweeps must not themselves use the pool. *)
val create :
  ?pool:Pool.t ->
  ?field_rank:int ->
  Decomp.t ->
  fields:string list ->
  init:(string -> int * int * int -> float) ->
  t

(** Add a field on every rank (or re-initialise an existing one; the
    per-rank field list is deduplicated on overwrite so a stale
    duplicate binding can never shadow the authoritative buffer). *)
val set_field : t -> string -> (int * int * int -> float) -> unit

(** Like {!set_field}, but scatters from a global
    (nx+2)(ny+2)[(nz+2)] buffer by contiguous row copies — the fast
    path behind kernel scatter. @raise Invalid_argument when the buffer
    shape does not match the decomposition's global extents. *)
val set_field_from_global : t -> string -> Rt.t -> unit

val has_field : t -> string -> bool
val field : rank_state -> string -> Rt.t

(** Pack the swap set [names] for the neighbour in [dir] into one
    self-describing payload: header = field count + per-field absolute
    offsets, then the halo planes in swap-set order. Exposed for
    round-trip testing. *)
val pack_coalesced :
  t -> names:string list -> rank:int -> dir:Decomp.direction -> float array

(** Unpack a coalesced payload received from the neighbour in [dir]
    into [rank]'s halo planes. @raise Invalid_argument when the header
    does not match the receiver's swap set or an offset escapes the
    payload. *)
val unpack_coalesced :
  t ->
  names:string list ->
  rank:int ->
  dir:Decomp.direction ->
  float array ->
  unit

(** Build one superstep as a phase list (each phase a per-rank body).
    With a non-empty swap set it has two phases: every rank posts one
    message per neighbour carrying the halos of [swap_fields]; then
    every rank receives its halos and runs [compute]. An empty swap set
    (a fused superstep) builds the single phase [compute]. Callers may
    concatenate many supersteps' phases into one {!run_phases} call. *)
val superstep_phases :
  t ->
  swap_fields:string list ->
  compute:(rank:int -> unit) ->
  (rank:int -> unit) list

(** Execute a phase list over all ranks: one pool-team launch, each
    member pinned to a contiguous slice of ranks, a barrier between
    phases; sequential without a pool. *)
val run_phases : t -> (rank:int -> unit) list -> unit

(** Run [iters] supersteps of {!superstep_phases} inside a single pool
    launch. *)
val iterate :
  t ->
  iters:int ->
  swap_fields:string list ->
  compute:(rank:int -> unit) ->
  unit

(** Gather a field into a global grid. Each rank contributes its
    interior plus only global-boundary halo planes (interior halos are
    other ranks' cells and may be one exchange stale). *)
val gather : t -> string -> Rt.t

val gather_into : t -> string -> Rt.t -> unit

(** (messages, bytes) moved so far. *)
val stats : t -> int * int
