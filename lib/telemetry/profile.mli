(** Per-stage cost attribution over traced packets.

    Folds {!Trace.trace}s — via the {!Span} derivation — into exact
    per-stage latency and cycle distributions, answering the question
    the paper's "no major throughput or latency penalty" claim raises:
    {e where} does a packet's end-to-end time actually go?

    Stage keys are the span names ([stage_of]-controlled, default
    ["layer.stage"]), with a ["#2"], ["#3"], … suffix when a stage
    repeats within one trace (the HARMLESS walk crosses SS_1 twice, so
    its translate stage shows up as ["translate"] and ["translate#2"]).
    With the suffixing, each trace contributes at most one sample per
    stage key, and because stage + transit spans tile the packet span
    exactly (see {!Span}), the per-stage p50s of a homogeneous workload
    sum to its end-to-end p50 — the invariant the attribution table
    reports and the tests pin to within 10%.

    Percentiles here are exact (nearest-rank over the raw samples), not
    log-bucketed: attribution needs to add up.  {!publish} additionally
    mirrors the distributions into {!Registry} histograms so the
    per-stage SLIs ride the normal exposition path. *)

type stats = {
  count : int;
  p50 : int;
  p95 : int;
  p99 : int;
  mean : float;
  total : int;  (** sum of samples *)
}

type t

val create : unit -> t

val record_trace : ?stage_of:(Trace.hop -> string option) -> t -> Trace.trace -> unit
(** Fold one trace: a latency sample per stage/transit span (ns), a
    cycles sample per stage span, one e2e sample.  Empty traces are
    ignored. *)

val record_traces :
  ?stage_of:(Trace.hop -> string option) -> t -> Trace.trace list -> unit

val traces_recorded : t -> int

val stages : t -> string list
(** Stage keys in first-appearance order (transits included). *)

val stage_stats : t -> stage:string -> stats option
(** Latency distribution (ns). *)

val stage_cycles : t -> stage:string -> stats option
(** Modelled-cycles distribution; [None] also when the stage never
    reported a cycle cost. *)

val e2e : t -> stats option
(** End-to-end (first hop → last hop) latency distribution. *)

val p50_sum_ns : t -> int
(** Sum of the per-stage latency p50s — the attributed end-to-end
    cost.  Compare against [e2e].p50. *)

val publish : ?registry:Registry.t -> ?prefix:string -> t -> unit
(** Mirror the distributions into registry histograms
    [<prefix>_stage_latency_ns{stage=…}], [<prefix>_stage_cycles{stage=…}]
    and [<prefix>_e2e_latency_ns] (prefix default ["harmless"]). *)

val attribution_table : t -> string
(** Deterministic text table: one row per stage (first-appearance
    order) with count/p50/p95/p99 and its share of the summed p50s,
    then a footer comparing the p50 sum against the measured
    end-to-end p50. *)
