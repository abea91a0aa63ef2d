(** Causal spans over the hop stream: turn a packet's flat hop list
    into a tree of timed intervals.

    {!Trace} hops are point events — "this packet was seen at this
    component, in this stage, at this sim-time".  For cost attribution
    a point is not enough: the question is {e how long} the packet
    spent in each stage.  This module derives intervals from the hop
    timestamps: a hop's stage span begins at its timestamp and ends at
    the next hop of the same packet (the last hop gets a zero-width
    span — it marks delivery or drop, not residency).

    The derived tree has three levels plus synthetic transit spans:

    - a root [packet] span covering first-hop → last-hop;
    - one {e visit} span per maximal run of consecutive hops emitted by
      the same component ([h0], [legacy0], [sw-ss1], …);
    - one {e stage} span per hop inside its visit;
    - a [transit:<from>-><to>] span for every gap between two visits
      in which sim time advances — wire time on the links, which would
      otherwise vanish from the attribution.  Host endpoints collapse to the role name ["host"]
      in transit names, so a workload spread over many host pairs
      yields one transit key per link role rather than one per host —
      the summation invariant below needs that.

    By construction the stage and transit spans exactly tile the root:
    their durations sum to the packet's end-to-end latency.  That
    invariant is what lets {!Profile} attribute e2e latency to named
    stages without residue.

    Exporters: Chrome trace-event async ["b"]/["e"] pairs (load the file
    in chrome://tracing or Perfetto; spans nest under their packet
    track) and flamegraph.pl-compatible collapsed stacks (feed to
    [flamegraph.pl] or paste into speedscope.app), both deterministic
    for a deterministic trace. *)

type t = {
  id : int;  (** unique within one [of_trace]/[of_traces] call, 1-based *)
  parent : int option;  (** [None] for the root packet span *)
  trace_key : int;  (** the {!Trace.trace} this span came from *)
  name : string;
      (** root: ["packet"]; visits: the component name; stages: the
          stage label (see [stage_of]); transits: ["transit:a->b"] *)
  component : string;  (** emitting component; root/transit: [""] *)
  begin_ns : int;
  end_ns : int;  (** [>= begin_ns]; zero-width spans are allowed *)
  cycles : int;  (** summed modelled cycles of the covered hops *)
  detail : string;
}

val duration_ns : t -> int

val of_trace :
  ?stage_of:(Trace.hop -> string option) -> Trace.trace -> t list
(** The span tree of one packet, in preorder (root first, children in
    time order).  [stage_of] names the stage spans — default
    [layer.stage], e.g. ["legacy.tag_push"]; returning [None] falls
    back to the default.  An empty trace yields [[]]. *)

val of_traces :
  ?stage_of:(Trace.hop -> string option) -> Trace.trace list -> t list
(** {!of_trace} over every trace, with globally unique span ids. *)

val chrome_events : t list -> Json.t list
(** Async ["b"]/["e"] event pairs (plus one thread-name metadata event
    per component), ready to splice into a Chrome trace-event array —
    see {!Chrome_trace.to_json}'s [spans] argument.  Timestamps are
    sim-time microseconds; ids are per-packet so concurrent packets
    render as separate async tracks. *)

val to_collapsed : t list -> string
(** Collapsed-stack (flamegraph.pl) rendering: one
    ["packet;<component>;<stage> <ns>"] line per leaf span, aggregated
    over every packet (values sum), lines sorted — deterministic.  The
    sample value is the span's duration in nanoseconds, so the flame
    graph's x-axis is sim time. *)
