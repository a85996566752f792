(** End-to-end compilation and execution pipelines — the paper's Figure 1
    as code. Each flow takes Fortran source text and produces a runnable
    {!artifact}. *)

open Fsc_ir

(** A typed, renderable driver error. The CLI catches it, renders the
    diagnostic through {!Fsc_analysis.Diag} and exits nonzero. *)
exception Error_diag of Fsc_analysis.Diag.t

(** GPU data-management strategy (Section 4.3 / Figure 5). *)
type gpu_strategy =
  | Gpu_initial  (** [gpu.host_register]: page everything, every launch *)
  | Gpu_optimised  (** the bespoke data-placement pass: device-resident *)

type target =
  | Serial
  | Openmp of int  (** auto-parallelised, thread count *)
  | Gpu of gpu_strategy
  | Dist of int
      (** distributed-memory lowering over simulated MPI, rank count *)

(** Human-readable target, e.g. ["openmp(4)"] — the one spelling used by
    the CLI, the batch/serve job printer and error messages. *)
val target_name : target -> string

(** Target without link-time parameters (["openmp"], no thread count):
    the spelling that identifies {e compiled code}, and therefore the one
    that belongs in cache keys — an OpenMP artifact is reusable across
    pool sizes because the pool is only created at {!link} time. *)
val target_kind : target -> string

(** Which execution tier runs compiled kernels on CPU targets. The
    engine is link-time state (like the pool size): it never changes the
    compiled IR, so it is not part of {!options} or the cache key. GPU
    targets always execute through the closure engine on the simulator's
    device twins. *)
type exec_engine =
  | Engine_interp  (** force the tree-walking interpreter *)
  | Engine_closure  (** {!Fsc_rt.Kernel_compile}'s per-cell closure JIT *)
  | Engine_vector
      (** {!Fsc_rt.Kernel_bytecode}'s row engine; per-nest automatic
          fallback to the closure engine outside the vectorisable
          shape *)
  | Engine_native
      (** {!Fsc_codegen.Native}: kernels emitted as OCaml source,
          compiled with [ocamlfind ocamlopt -shared] and Dynlink'ed;
          serves from the vector engine until the plugin is ready and
          falls back to it per nest (emit/bounds) or per kernel
          (toolchain/build/load failures). CPU targets only: under
          [Dist], each rank-uniform stage (every rank's localized nests
          and local extents identical) runs one plugin shared by all
          ranks and every other stage per-rank vector plans; GPU
          targets run on the device twins as always. *)

val engine_name : exec_engine -> string

(** Inverse of {!engine_name}; [None] for unknown spellings. *)
val engine_of_name : string -> exec_engine option

(** Every engine, in ladder order. *)
val all_engines : exec_engine list

(** Valid [--exec-engine] spellings, for diagnostics. *)
val engine_names : string list

(** How a kernel is executed at runtime. *)
type kernel_impl =
  | Compiled of Fsc_rt.Kernel_compile.spec
      (** closure-compiled fast path *)
  | Vectorised of Fsc_rt.Kernel_compile.spec * Fsc_rt.Kernel_bytecode.plan
      (** row-vectorised engine (inspect the plan for per-nest
          fallbacks) *)
  | Native_jit of Fsc_rt.Kernel_compile.spec * Fsc_codegen.Native.kernel
      (** native JIT tier (query {!Fsc_codegen.Native.report} for build
          origin, timing and per-nest fallbacks) *)
  | Interpreted of string  (** fallback, with the analyser's reason *)
  | Distributed of Fsc_rt.Kernel_compile.spec
      (** SPMD execution over the ranks of a [Dist] target *)

type artifact = {
  a_host : Op.op;  (** the FIR host module *)
  a_stencil : Op.op option;  (** extracted module after lowering *)
  a_gpu_ir : Op.op option;
      (** the Listing-4 pipeline output (GPU targets only) *)
  a_ctx : Fsc_rt.Interp.context;  (** linked execution context *)
  a_kernels : (string * kernel_impl) list;
  a_target : target;
  a_dist : Fsc_dmp.Dist_kernel.state option;
      (** distributed runtime ([Dist] targets under the closure, vector
          and native engines) *)
}

type stencil_stats = {
  st_discovered : int;
  st_merged : int;
  st_kernels : int;
}

(** Everything {!compile} is parameterised by. One record so the cache
    key and the compiler agree by construction on what defines an
    artifact's identity. *)
type options = {
  opt_target : target;
  opt_l2_kb : int;
      (** per-core cache budget (KB) driving the ["cpu_tile"] nest
          annotations the vector engine blocks by; the host's L2 *)
}

val default_options : ?target:target -> unit -> options

(** The pure, serializable half of a stencil compilation: IR modules and
    metadata only — no interpreter context, no domain pool, no GPU
    simulator, no Bigarrays, no closures. It is exactly the value the
    artifact cache stores (as printed IR) and {!link} consumes. *)
type compiled_artifact = {
  ca_host : Op.op;  (** FIR host module after extraction *)
  ca_stencil : Op.op;  (** extracted module after lowering *)
  ca_gpu_ir : Op.op option;  (** Listing-4 output (GPU targets) *)
  ca_kernels : string list;  (** stencil kernel symbols, in order *)
  ca_managed : string list;
      (** kernels whose GPU data placement was hoisted (optimised GPU) *)
  ca_footprints : (string * Fsc_analysis.Footprint.t) list;
      (** per-kernel affine read/write footprints (analysable kernels
          only) — the proof artifacts behind halo-aware staling and
          codegen guard elision, and part of the cache contract *)
  ca_stats : stencil_stats;
  ca_options : options;
}

(** The baseline: frontend to FIR, no stencil optimisation, naive
    execution (the paper's "Flang only" series). *)
val flang_only : string -> artifact

(** Pure front half of the Figure-1 pipeline: frontend, discovery,
    merge, extraction, GPU data placement and lowering. Deterministic in
    [options] and the source text, and free of runtime state — the
    cacheable unit. *)
val compile : options -> string -> compiled_artifact

(** Impure back half: create the interpreter context, register the host
    and stencil modules, allocate the OpenMP pool / GPU simulator for
    the artifact's target, and compile each kernel for [engine]
    (default {!Engine_vector}; falls back to the interpreter outside
    the analysable shape, and per nest to the closure engine outside
    the vectorisable shape). Safe to call several times on one
    artifact; each call yields an independent runnable.

    For [Dist] targets, ranks execute concurrently on a domain pool
    sized [min ranks (recommended_size ())], and {!Fsc_dmp.Dist_kernel}
    schedules the halo supersteps itself: exchanged before each stage
    computes, fused away when the halos are already fresh, coalesced into
    one message per neighbour, and staled only by writes whose affine
    footprint reaches a block-boundary plane. Each stage's per-rank
    code comes from the engine: closure or vector runners per rank, or
    under {!Engine_native} one plugin shared by every rank for a
    rank-uniform stage (bound and, with a [Sync] ctx, built on the
    calling thread before any rank runs; with an [Async] ctx the ranks
    run its vector plan until the plugin is resident). Under
    {!Engine_interp} the program runs entirely on the host interpreter
    (no distribution).

    [native] supplies the {!Engine_native} context (cache directory,
    build mode, toolchain); without it a process-wide default ctx
    (async builds, default cache directory) is created on first use.
    It is ignored under other engines. The native tier applies its
    emit-time scheduling (cache tiling, register reuse, row blits,
    cross-nest fusion) wherever legality and the tile hints allow; see
    {!Fsc_codegen.Emit}. *)
val link :
  ?engine:exec_engine ->
  ?native:Fsc_codegen.Native.ctx ->
  compiled_artifact ->
  artifact

(** The full stencil pipeline: {!compile} then {!link}. *)
val stencil :
  ?target:target ->
  ?engine:exec_engine ->
  ?native:Fsc_codegen.Native.ctx ->
  string ->
  artifact * stencil_stats

(** Execute the program's [_QQmain]; for GPU targets, synchronise device
    mirrors back to the host afterwards; for [Dist] targets, gather the
    scattered rank-local buffers back into the host globals.
    @raise Fsc_dmp.Decomp.Invalid_decomp when a distributed kernel's
    grid cannot host the requested rank count. *)
val run : artifact -> unit

(** Release the artifact's worker pool (OpenMP and Dist targets) after
    draining any in-flight native builds — kernel plugins and Dist stage
    plugins — so short runs still publish their compiled plugins to the
    artifact cache. *)
val shutdown : artifact -> unit

(** Look up a named Fortran array allocated during execution. *)
val buffer : artifact -> string -> Fsc_rt.Memref_rt.t option

val buffer_exn : artifact -> string -> Fsc_rt.Memref_rt.t
