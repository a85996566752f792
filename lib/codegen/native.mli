(** The native JIT tier: emitted OCaml, compiled with
    [ocamlfind ocamlopt -shared], Dynlink'ed, cached.

    A {!ctx} owns the toolchain probe, the content-addressed artifact
    cache (generated [.ml], built [.cmxs] and a toolchain [.stamp] as
    sidecars, revalidated at startup) and the in-flight build table. A
    {!kernel} binds on its first call — strides are call-time facts —
    emits source with everything baked in, and serves from the vector
    engine until its plugin is resident ([Async] mode builds on a
    background thread; [Sync] builds inline for tests and benches).

    v2: emission is a scheduling codegen ({!Emit}) — cache tiling from
    the [n_tile] hint, rolling register windows, row blits, and
    cross-nest fusion — and execution dispatches emitted {e groups}
    with an in-plugin [pfor] work-sharer instead of chunking around
    per-nest entries. Tiled artifacts record the L2 budget behind their
    tile shape in the stamp sidecar; startup revalidation drops them
    when the budget changed.

    The fallback chain never fails a run: missing toolchain, emit
    unsupported, compile/Dynlink failure, stale stamps, bounds
    validation and shape guards all drop to the vector engine (per nest
    for emit/bounds failures, per kernel otherwise), counted on
    [codegen.*] Obs counters and summarised by {!report}. Results are
    bitwise identical to the interp/closure/vector tiers. *)

module Kc = Fsc_rt.Kernel_compile
module Kb = Fsc_rt.Kernel_bytecode
module Cache = Fsc_cache.Cache

(** Cache format/codegen generation; part of every artifact key. *)
val format_version : int

type mode =
  | Async  (** build in the background, vector serves meanwhile *)
  | Sync  (** build inline on the first call (tests, benches) *)

type ctx
type kernel

(** [create ()] probes the toolchain (override the findlib driver with
    [ocamlfind], or the [SFC_NATIVE_OCAMLFIND] env var) and revalidates
    cached sidecars against its stamp. [cache] defaults to a fresh
    disk cache in the default directory; pass the driver's cache to
    share one directory. [l2_kb] is the cache budget behind the current
    [n_tile] hints: tiled artifacts built under a different budget are
    dropped at startup, and freshly built tiled artifacts record it.
    Probe failure is recorded, not raised: every kernel of the ctx then
    runs on the vector engine. *)
val create :
  ?cache:Cache.t -> ?mode:mode -> ?ocamlfind:string -> ?l2_kb:int -> unit ->
  ctx

val cache : ctx -> Cache.t

(** Why the native tier is disabled, if it is. *)
val toolchain_error : ctx -> string option

(** Sidecar sets dropped by startup revalidation (compiler changed, or
    a tiled artifact's recorded L2 budget no longer matches). *)
val stale_dropped : ctx -> int

(** Wrap one analysed kernel. Compiles the vector fallback plan
    immediately; emission and the native build happen lazily at the
    first {!run}, scheduled by {!Emit}. *)
val prepare : ctx -> name:string -> Kc.spec -> kernel

val name : kernel -> string

(** The vector-engine plan used whenever the native path is not. *)
val plan : kernel -> Kb.plan

(** Bind the kernel to these buffers' shapes now, on the calling thread
    — emitting its source and starting its build ({!Sync}: building
    inline) — instead of at the first {!run}. Callers that run the
    kernel from pool workers (the distributed ranks) bind first so no
    worker ever compiles. A no-op once bound or without a toolchain. *)
val bind : kernel -> bufs:Fsc_rt.Memref_rt.t array -> unit

(** The plugin's cache key (a digest of the emitted body) once bound
    with a body to build; [None] before binding or on a bind-time
    fallback. Kernels with equal keys share one plugin. *)
val key : kernel -> string option

(** Execute the kernel: emitted groups where ready and proven in
    bounds, the vector engine everywhere else. Parallel outer levels
    are work-shared {e inside} the plugin when [pool] has more than one
    worker; shift-fused groups dispatch their members' standalone
    entries in that case (the fused schedule is serial). Never fails
    due to the native tier.
    @raise Kc.Fallback on mismatched buffer extents (as {!Kb.run}). *)
val run :
  kernel ->
  ?pool:Fsc_rt.Domain_pool.t ->
  bufs:Fsc_rt.Memref_rt.t array ->
  scalars:float array ->
  unit ->
  unit

(** Block until the kernel's build (if one started) completed. *)
val await : kernel -> unit

(** {!await} plus reaping the build thread — run at artifact shutdown
    so short processes still publish their plugins to the cache. *)
val drain : kernel -> unit

type origin =
  | Origin_built  (** cold: compiled in this process *)
  | Origin_cache  (** warm: Dynlink'ed a stamped cached [.cmxs] *)
  | Origin_memo  (** an identical plugin was already resident *)

type report = {
  rp_engine : string;  (** ["native"], ["mixed"] or ["vector"] *)
  rp_detail : string;  (** one human line for [--stats] *)
  rp_build_ms : float option;  (** compile wall time, cold builds only *)
  rp_origin : origin option;
  rp_native_nests : int;
  rp_vector_nests : int;
      (** nests outside the plugin that the vector plan vectorises *)
  rp_total_nests : int;
  rp_fused_nests : int;  (** nests running inside multi-nest groups *)
  rp_tile_rows : int option;  (** tile shape, when blocked loops emitted *)
  rp_reuse_windows : int;  (** rolling register windows in the module *)
  rp_copy_blits : int;  (** innermost copy loops emitted as row blits *)
  rp_par_mode : string option;
      (** how the last native run work-shared: ["in-plugin pool(N)"] or
          ["serial"]; [None] before the first native run *)
  rp_fp_proved : int;
      (** nests whose bind-time bounds scan was elided because the
          footprint proved every access in-extent *)
  rp_pending_runs : int;  (** calls served by vector mid-build *)
  rp_guard_misses : int;  (** calls whose shapes differed from bind *)
}

val report : kernel -> report

(** [= (report k).rp_detail] *)
val describe : kernel -> string
