(** Chrome trace-event JSON export of one {!Trace} recorder.

    The output is the plain JSON-array flavour of the trace-event
    format: ["thread_name"] metadata ("M") events naming one pseudo
    thread per emitting component, then one complete ("X") event per
    recorded hop with sim-time microsecond timestamps, then — when
    [spans] is given — async ["b"]/["e"] pairs rendering the causal span
    tree (see {!Span}) as per-packet tracks, then instant ("i") events
    rendering the recorder's retained events on one pseudo thread per
    stream.  Correlated events carry their id in [args.trace_key] in the
    same ["%08x"] form the hops use, so an args search in Perfetto joins
    a control-plane decision to the packet that triggered it.  Load the
    file in chrome://tracing or https://ui.perfetto.dev. *)

val to_json : ?cycles_per_us:float -> ?spans:Span.t list -> Trace.t -> Json.t
(** [cycles_per_us] converts hop cycle costs to event durations
    (default 2400., i.e. a 2.4 GHz core); durations floor at 1 ns.
    [spans] (default none) appends {!Span.chrome_events}. *)

val to_string : ?cycles_per_us:float -> ?spans:Span.t list -> Trace.t -> string
(** One event per line, pinned by a golden test. *)

val save :
  ?cycles_per_us:float -> ?spans:Span.t list -> Trace.t -> path:string -> unit
