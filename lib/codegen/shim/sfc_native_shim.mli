(** Host/plugin meeting point for Dynlink'd native kernels.

    This is the only module generated kernel plugins are compiled
    against; it must stay dependency-free (stdlib only) so a plugin
    never pins internal library interfaces. The host links it in,
    plugins [register] their entries from their module initialiser, and
    {!Fsc_codegen.Native} resolves them with [find] right after
    [Dynlink.loadfile]. *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [pfor lo hi body] work-shares the range [lo, hi): [body plo phi]
    runs disjoint chunks covering it, and [pfor] returns once every
    chunk completed. The host supplies a pool-backed implementation
    when it has workers to share with and a run-inline one otherwise. *)
type pfor = int -> int -> (int -> int -> unit) -> unit

(** One compiled loop group (a nest, or several nests fused at emit
    time): [entry bufs scalars pfor] runs the whole group, driving its
    own loops and sharing the outer parallel level through [pfor]. *)
type entry = buf array -> float array -> pfor -> unit

(** [register key entries] publishes a plugin's groups, keyed by the
    cache digest baked into its source; [entries] pairs each emitted
    function name with its entry. Thread-safe; later registrations
    replace earlier ones. *)
val register : string -> (string * entry) list -> unit

val find : string -> (string * entry) list option
