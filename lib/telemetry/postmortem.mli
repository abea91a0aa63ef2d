(** Automatic post-mortem capture over the events of a {!Trace}
    recorder.

    A {e snapshot} is a deterministic, bounded bundle of everything a
    failure investigation needs: the recent event window around the
    first {e trigger} (a fault injection, an alert going firing, a
    migration rollback, a fleet abort), the packet spans whose trace
    keys appear as correlation ids in that window, and the relevant
    slice of each monitored time series.  Rigs call {!capture} once at
    the end of a recorded run ("capture at finalize"): the triggers are
    derived from the recorded events themselves, so no subsystem needs
    a callback into this module, and a same-seed rerun reproduces the
    snapshot byte for byte.

    {!analyze} turns a snapshot into a causal timeline — the earliest
    fault-stream event is the root cause, and the significant events
    after it (warnings and errors, alert transitions to firing,
    rollbacks, aborts) become the steps.  {!render} prints it in the
    dashboard's vocabulary:
    {v trunk:primary down@4.200ms -> slo_rtt firing@5.100ms -> sw7 rollback@6.000ms -> fleet abort@6.200ms v} *)

type snapshot = {
  scenario : string;  (** token naming the run, e.g. ["chaos"] *)
  seed : int;
  captured_ns : int;  (** sim time at capture *)
  window_start_ns : int;  (** first trigger minus the pre-window *)
  triggers : Trace.event list;  (** events that matched the trigger predicate *)
  events : Trace.event list;  (** the retained window, (ts, seq) order *)
  spans : Span.t list;  (** spans correlated with the window's events *)
  series : (string * (int * float) list) list;
      (** per-series points inside the window, given order *)
}

val schema : string
(** ["harmless-postmortem/2"] — first line of every serialized snapshot. *)

val capture :
  ?trigger:(Trace.event -> bool) ->
  ?pre_window_ns:int ->
  ?spans:Span.t list ->
  ?series:Timeseries.t list ->
  scenario:string ->
  seed:int ->
  captured_ns:int ->
  Trace.t ->
  snapshot option
(** Derive a snapshot from a recorder's retained events at the end of
    a run.  [None] when no retained event matches [trigger] — an
    uneventful run produces no post-mortem.  The default trigger is any
    ["fault"]-stream event, an ["alert"] event named ["firing"], a
    ["migration"] event named ["rollback"] or ["abort"], or a ["fleet"]
    event named ["abort"].
    The event window is everything from [pre_window_ns] (default 5ms)
    before the first trigger through the end of the recording; spans
    are kept when their trace key matches a window event's correlation
    id; series are sliced to the window.
    @raise Invalid_argument if [scenario] is not a whitespace-free
    token. *)

val to_string : snapshot -> string
(** Deterministic line-based serialization, parsed back by
    {!of_string}. *)

val of_string : string -> (snapshot, string) result

val save : snapshot -> path:string -> unit

val load : path:string -> (snapshot, string) result

val to_json : snapshot -> Json.t
(** One-way JSON export of the same content (machine consumers). *)

type timeline = {
  root_cause : Trace.event option;
      (** earliest ["fault"]-stream event in the window *)
  steps : Trace.event list;
      (** the significant events, (ts, seq) order, root cause first
          when present *)
}

val analyze : snapshot -> timeline

val render : snapshot -> string
(** Human-readable report: header, the causal timeline as an
    ["a -> b -> c"] chain, then the full event window, correlated
    spans and series slices.  Deterministic. *)
