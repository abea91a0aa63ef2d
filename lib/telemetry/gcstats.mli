(** Periodic GC sampling into the monitoring plane.

    A [Gcstats.t] is a bundle of {!Timeseries} — minor/major collection
    counters, promoted words, live heap words, cumulative allocated
    words — fed either from the real runtime ({!sample}, which reads
    [Gc.quick_stat]/[Gc.allocated_bytes]) or with explicit values
    ({!observe}, for deterministic tests).  Timestamps are sim-time
    nanoseconds, like every other series in the plane, so the same
    {!Alert} rate rules and dashboard renderers apply: the canonical
    rule is {!add_alloc_rate_rule}, a [Rate_above] watch on the
    allocated-words counter — sustained allocation pressure is the
    OCaml-wall-clock risk ROADMAP item 3 calls out at 10^7 events. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh, empty series (default capacity 1024 points each). *)

val sample : t -> ts_ns:int -> unit
(** Record one sample of the live runtime: [Gc.quick_stat] counters
    plus [Gc.allocated_bytes] converted to words.  Timestamps must be
    non-decreasing across calls. *)

val observe :
  t ->
  ts_ns:int ->
  minor_collections:int ->
  major_collections:int ->
  promoted_words:float ->
  heap_words:int ->
  allocated_words:float ->
  unit
(** Record explicit values — the deterministic feed for tests and
    goldens. *)

val samples : t -> int
(** Samples recorded so far. *)

(** {2 The series} — cumulative counters unless noted; read rates with
    {!Timeseries.rate_over}. *)

val allocated_words_series : t -> Timeseries.t
(** Cumulative words ever allocated (minor + direct major). *)

val alloc_rate : t -> now_ns:int -> window:int -> float option
(** Words allocated per second over the trailing window — the headline
    pressure number.  [None] until the window holds two samples. *)

val add_alloc_rate_rule :
  t ->
  Alert.t ->
  ?name:string ->
  ?for_:int ->
  words_per_second:float ->
  window:int ->
  unit ->
  unit
(** Register a [Rate_above] rule (default name ["gc-alloc-rate"]) on
    the allocated-words series: pending once the rate exceeds
    [words_per_second], firing after [for_] ns (default 0). *)

val panel : t -> now_ns:int -> window:int -> string
(** The dashboard GC panel, one line: sample count, alloc rate over
    [window], collection counters, promoted and heap words.  Renders
    live-runtime numbers when fed by {!sample} — deterministic only for
    an {!observe}-fed instance. *)
