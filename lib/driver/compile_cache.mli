(** Cached compilation: the bridge between {!Pipeline.compile} and the
    content-addressed artifact store in [Fsc_cache.Cache].

    Entries are keyed by a digest of (source text, target kind, L2
    cache budget, format version) and hold the {e printed} IR of every
    pipeline stage plus kernel metadata — including
    the per-kernel affine footprints (canonical string form). Loading
    re-parses each module through [Fsc_ir.Parser], re-verifies the host
    and recomputes every footprint from the parsed stencil IR, demanding
    it match what was stored — so every warm hit doubles as a
    printer/parser round-trip check {e and} a footprint-analysis
    consistency check; entries that fail are evicted by the cache, never
    fatal.

    The OpenMP thread count is deliberately absent from the key: the
    pool is created at {!Pipeline.link} time, so one cached artifact
    serves every pool size (the requested options are re-attached on
    load). *)

(** Bumped whenever the serialized layout or anything feeding the digest
    changes; old entries are then evicted on sight. *)
val format_version : int

(** A cache wired to [format_version] (defaults: 64 in-memory entries,
    disk store under [Cache.default_dir ()]); [max_disk_bytes] bounds
    the disk store with LRU whole-set eviction (see {!Fsc_cache.Cache.create}). *)
val create_cache :
  ?mem_entries:int ->
  ?disk:bool ->
  ?dir:string ->
  ?max_disk_bytes:int ->
  unit ->
  Fsc_cache.Cache.t

(** The entry key for compiling [source] under the given options. *)
val key : Fsc_cache.Cache.t -> Pipeline.options -> string -> string

(** Serialize to the cached payload (printed IR + metadata, JSON). *)
val encode : Pipeline.compiled_artifact -> string

(** Re-parse and re-verify a payload; the artifact's options are the
    requested ones, not the (kind-identical) ones it was compiled
    under. *)
val decode :
  Pipeline.options -> string -> (Pipeline.compiled_artifact, string) result

(** [compile ?cache options src] — with a cache, look up first and
    populate on miss; without one, plain {!Pipeline.compile}. The second
    component reports what happened, for [--stats] and the job
    protocol. *)
val compile :
  ?cache:Fsc_cache.Cache.t ->
  Pipeline.options ->
  string ->
  Pipeline.compiled_artifact * [ `Hit | `Miss | `Off ]
