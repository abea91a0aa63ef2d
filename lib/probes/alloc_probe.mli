(** Scoped minor-heap allocation probes for hot paths.

    The one primitive the memory-telemetry plane needs below the
    telemetry library in the dependency graph: bracket a section with
    {!mark}/{!record} and, when a recorder is installed, the section's
    minor-heap allocation (in words) is folded into a per-site
    histogram.  With no recorder installed — the default — both calls
    are a single ref read and allocate {e nothing}, so instrumenting a
    fast path costs two loads per call (the no-alloc tests pin this at
    exactly zero minor words).

    The counter is [Gc.minor_words]: cumulative words ever allocated on
    the minor heap, independent of when collections happen, so deltas
    are deterministic for deterministic code.  Boxed allocations that
    exceed the young size limit go straight to the major heap and are
    not seen — packet-sized buffers (max 1518 B ≈ 190 words) all land
    in the minor heap, so the paths this instrument targets are fully
    covered.

    Nesting is fine: an inner probe's own bookkeeping (one array push)
    is charged to the enclosing probe — a constant, documented tax.
    The recorder is process-global, single-domain, like the trace
    recorder. *)

type t
(** A recorder: per-site sample sets, keyed by the probe name. *)

val create : unit -> t

val install : t -> unit
(** Make [t] the process recorder (replacing any other). *)

val uninstall : unit -> unit
(** Remove the process recorder; probes go back to costing two ref
    reads and zero allocation. *)

val enabled : unit -> bool

val mark : unit -> int
(** Current cumulative minor words — the open bracket.  Returns [0]
    when no recorder is installed (the real counter is never 0 in a
    running program, so [0] doubles as "was disabled"). *)

val record : string -> int -> unit
(** [record site m] closes the bracket opened by [mark]: folds
    [minor_words () - m] into [site]'s samples.  A no-op when no
    recorder is installed or when [m = 0] (the probe was opened while
    disabled — guards against an install racing a section). *)

val with_recorder : (unit -> 'a) -> 'a * t
(** Run [f] with a fresh recorder installed, restoring the previous
    state afterwards (also on exceptions). *)

(** {2 Reading a recorder} *)

val sites : t -> string list
(** Probe sites in first-appearance order. *)

val samples : t -> string -> int array
(** The site's recorded word deltas, oldest first; [[||]] for an
    unknown site. *)

val count : t -> int
(** Total samples recorded across all sites. *)

val clear : t -> unit
