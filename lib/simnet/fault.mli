(** Deterministic, sim-time-scripted fault injection.

    A fault scenario is a list of {!event}s — "after this much sim time,
    apply this action to that target".  Targets are free-form strings
    ("trunk:primary", "channel", "mgmt", …) registered by whoever owns
    the component; the injector just dispatches at the scheduled instant
    and keeps a log, so a whole chaos run is as deterministic as the
    engine itself.  [Harmless.Chaos] binds the targets of a full
    deployment; tests can register ad-hoc handlers directly.

    The script text format is one event per line
    ([#] comments and blank lines ignored):

    {v
    20ms  channel        down
    60ms  channel        up
    45ms  mgmt           flaky 2
    80ms  trunk:primary  down
    90ms  trunk:primary  degrade loss=0.05 jitter=100us
    95ms  switch:ss2     crash
    99ms  switch:ss2     restart
    v} *)

type action =
  | Down                 (** take the target down / black-hole it *)
  | Up                   (** restore the target *)
  | Degrade of { loss : float; jitter : Sim_time.span }
      (** impair without killing (links, channels) *)
  | Flaky of int         (** make the target's next [n] operations fail *)
  | Crash                (** crash a component, losing its soft state *)
  | Restart              (** bring a crashed component back *)

type event = { after : Sim_time.span; target : string; action : action }

val pp_event : Format.formatter -> event -> unit

val parse_span : string -> (Sim_time.span, string) result
(** ["20ms"], ["500us"], ["1s"], ["100ns"]. *)

val parse_script : string -> (event list, string) result
(** Parse the text format above.  Errors name the offending line. *)

val to_script : event list -> string
(** Render events back to the text format, one per line, such that
    [parse_script (to_script evs)] succeeds.  Lets a randomly generated
    schedule be printed, saved, and replayed verbatim. *)

val random_events :
  Rng.t -> targets:string list -> n:int -> horizon:Sim_time.span -> event list
(** [random_events rng ~targets ~n ~horizon] draws [n] random faults over
    the given targets, each paired with its recovery ([Down]/[Degrade]
    get an [Up], [Crash] a [Restart]; [Flaky] self-heals), all within
    [horizon].  Sorted by [after]; same rng state gives the same
    schedule.
    @raise Invalid_argument if [targets] is empty or [horizon <= 0]. *)

type injector

val create : Engine.t -> injector

val register :
  injector -> target:string -> (action -> (unit, string) result) -> unit
(** Bind a target name to its handler.  Handlers return [Error] for
    actions that make no sense for the target (logged, not raised).
    @raise Invalid_argument on a duplicate target. *)

val targets : injector -> string list
(** Registered target names, sorted. *)

val schedule : injector -> event list -> unit
(** Schedule every event at [now + after] on the injector's engine. *)

val run_script : injector -> string -> (event list, string) result
(** {!parse_script} then {!schedule}; returns the parsed events. *)

(** One log entry: when the event fired and whether it applied. *)
type applied = {
  at : Sim_time.t;
  event : event;
  outcome : (unit, string) result;
}

val applied : injector -> applied list
(** Events that have fired so far, oldest first.  Unknown targets log an
    [Error] outcome rather than raising — a chaos script must never
    crash the run it is testing. *)

val faults_injected : injector -> int
val pp_report : Format.formatter -> injector -> unit
