(** Transactional live cutover: a staged, make-before-break migration
    engine that takes one legacy switch through
    [precheck → shadow → canary → commit], journaling every step to a
    {!Mgmt.Txn} write-ahead log and gating the canary on live health
    probes.

    The paper's Manager deploys the sandwich in one shot; this engine
    makes that deployment {e harmless} in the operational sense too:

    - every step boundary is journaled {e before} the step runs, so a
      manager crash anywhere leaves a WAL from which {!recover} drives
      the device to a consistent state — fully committed or fully
      rolled back, never half-applied;
    - recovery is guarded by device-state inspection (is the running
      config the candidate or not?), which makes replay idempotent:
      recovering an already-terminal transaction is a no-op;
    - the canary stage evaluates SLO rules over live telemetry
      ({!Telemetry.Alert} over {!Telemetry.Timeseries} /
      {!Sdnctl.Stats_poller} series) and a breach triggers automatic
      rollback to the pre-migration configuration;
    - repeated failures trip a {!Breaker}, which the {!Fleet}
      orchestrator consults before starting each further switch.

    The dataplane-side artifacts (SS_1/SS_2, patch ports, trunk links,
    controller attachment) are built and torn down through caller
    {!hooks}, keeping the engine itself free of topology policy. *)

(** A failure-counting circuit breaker, evaluated on the sim clock. *)
module Breaker : sig
  type state = Closed | Open | Half_open

  type t

  val create : ?threshold:int -> ?cooldown:Simnet.Sim_time.span -> unit -> t
  (** Trip ([Closed] → [Open]) after [threshold] consecutive failures
      (default 3); stay open for [cooldown] (default 100 ms), then admit
      one probe ([Half_open]).  @raise Invalid_argument on
      [threshold < 1] or [cooldown <= 0]. *)

  val state : t -> now:Simnet.Sim_time.t -> state
  val allow : t -> now:Simnet.Sim_time.t -> bool
  (** True in [Closed] and [Half_open]. *)

  val record : t -> now:Simnet.Sim_time.t -> ok:bool -> unit
  (** A success in [Half_open] (or [Closed]) closes and resets the
      count; a failure counts towards the threshold and re-opens a
      half-open breaker immediately. *)

  val trips : t -> int
  (** [Closed]/[Half_open] → [Open] transitions so far. *)

  val reopen_at : t -> Simnet.Sim_time.t option
  (** When the latest trip's cooldown ends (the [Open] → [Half_open]
      instant); [None] if the breaker has not tripped since it last
      closed. *)

  val consecutive_failures : t -> int
  val pp_state : Format.formatter -> state -> unit
end

type stage = Precheck | Shadow | Canary | Commit

val stage_name : stage -> string

(** The live health gate for the canary stage. *)
type gate = {
  probe : unit -> unit;
      (** kick one round of probe traffic into the cut-over dataplane *)
  healthy : now_ns:int -> (unit, string) result;
      (** judge the SLOs now; [Error reason] = breach → rollback *)
  interval : Simnet.Sim_time.span;  (** spacing between probe rounds *)
  warmup : Simnet.Sim_time.span;
      (** grace before the first judgment — lets the control channel
          handshake and the first stats land without a false breach *)
  window : Simnet.Sim_time.span;    (** total canary duration *)
}

val gate :
  ?interval:Simnet.Sim_time.span ->
  ?warmup:Simnet.Sim_time.span ->
  ?window:Simnet.Sim_time.span ->
  probe:(unit -> unit) ->
  healthy:(now_ns:int -> (unit, string) result) ->
  unit ->
  gate
(** Defaults: interval 500 us, warmup 5 ms, window 15 ms.
    @raise Invalid_argument on a non-positive interval/window or a
    negative warmup, or if [warmup >= window]. *)

val slo_gate :
  alerts:Telemetry.Alert.t ->
  ?rules:string list ->
  ?interval:Simnet.Sim_time.span ->
  ?warmup:Simnet.Sim_time.span ->
  ?window:Simnet.Sim_time.span ->
  probe:(unit -> unit) ->
  unit ->
  gate
(** A gate whose judgment evaluates [alerts] at each probe round and
    breaches when any rule (restricted to [rules] when given) is
    firing.  This is how latency/loss SLOs built over
    {!Sdnctl.Stats_poller} / {!Telemetry.Timeseries} series gate the
    cutover. *)

(** What to migrate. *)
type plan = {
  device : Mgmt.Device.t;
  trunk_port : int;
  access_ports : int list;
  base_vid : int option;
}

(** Callbacks that build / tear down the dataplane-side artifacts. *)
type hooks = {
  on_shadow : Port_map.t -> (unit, string) result;
      (** make-before-break "make": instantiate SS_1/SS_2, patch ports,
          trunk link, controller attachment.  Runs {e before} the device
          config commit. *)
  on_commit : unit -> unit;   (** finalize after a clean canary *)
  on_rollback : unit -> unit; (** tear the shadow artifacts down; must
                                  tolerate being called when nothing was
                                  built *)
}

val no_hooks : hooks

type status =
  | Pending
  | Running of stage
  | Committed
  | Rolled_back of string  (** with the triggering reason *)
  | Failed of string
      (** rollback itself failed — device state unknown; surfaced, never
          masked as success *)
  | Crashed of string
      (** an armed {!Mgmt.Txn.Crashed} fired here; recovery's job now *)

val pp_status : Format.formatter -> status -> unit

type t

val create :
  Simnet.Engine.t ->
  wal:Mgmt.Txn.t ->
  ?txn_id:string ->
  ?retry:Mgmt.Retry.policy ->
  ?rng:Simnet.Rng.t ->
  ?deadline:Simnet.Sim_time.span ->
  ?gate:gate ->
  ?hooks:hooks ->
  plan ->
  t
(** [txn_id] defaults to the device hostname.  [rng] feeds retry
    jitter; [deadline] bounds the total management-plane backoff of the
    forward path (rollback is deliberately not starved by it).  Without
    a [gate] the canary stage journals but passes immediately. *)

val status : t -> status
val port_map : t -> Port_map.t option
(** Available once precheck computed it. *)

val rollbacks : t -> int

val on_stage : t -> (stage -> unit) -> unit
(** Observe stage starts (panel updates, scripted fault injection). *)

val start : t -> on_done:(status -> unit) -> unit
(** Begin the staged cutover as engine events.  [on_done] fires with
    the terminal status — except on a crash, where the "process" is
    gone and nobody calls back (exactly the failure recovery exists
    for). *)

val run : t -> status
(** {!start}, then step the engine until the machine is terminal (or
    the event queue drains).  Single-switch convenience. *)

(** {2 Crash recovery} *)

type recovery = {
  txn : string;
  resolution : Mgmt.Txn.resolution;  (** what WAL replay decided *)
  actions : string list;             (** what recovery actually did *)
  status : status;                   (** terminal outcome *)
}

val recover :
  wal:Mgmt.Txn.t ->
  txn_id:string ->
  device:Mgmt.Device.t ->
  ?hooks:hooks ->
  ?retry:Mgmt.Retry.policy ->
  unit ->
  (recovery, string) result
(** Replay the WAL for [txn_id] and drive the device to a consistent
    state:

    - [committed] in the log → effects stay (running config verified
      against the recomputed candidate);
    - terminal rollback in the log → nothing to do;
    - anything less → undo: discard any staged candidate, roll the
      device back {e only} if the running config is the candidate (the
      state inspection that makes replay idempotent), run
      [hooks.on_rollback], then journal [rollback]/[rolled-back].

    [Error] only for an unusable WAL (unparseable plan detail); a
    failed device rollback lands in [status = Failed …]. *)

(** {2 Fleet orchestration} *)

module Fleet : sig
  type member = {
    name : string;          (** txn id; defaults work out of hostname *)
    plan : plan;
    gate : gate option;
    hooks : hooks option;
  }

  type member_status =
    | Waiting
    | Migrating of stage
    | Done of status
    | Skipped of string

  type state = Idle | Running | Paused | Aborted of string | Done

  type t

  val create :
    Simnet.Engine.t ->
    wal:Mgmt.Txn.t ->
    ?concurrency:int ->
    ?blast_radius:int ->
    ?breaker:Breaker.t ->
    ?retry:Mgmt.Retry.policy ->
    ?deadline:Simnet.Sim_time.span ->
    ?seed:int ->
    member list ->
    t
  (** [concurrency] (default 1) bounds in-flight migrations;
      [blast_radius] (default 0) is the number of {e failed} switches
      tolerated before the whole fleet aborts; [seed] (default 42)
      derives one jitter rng per member, so concurrent retry storms
      de-synchronise deterministically.  The [breaker] (default
      threshold 3, cooldown 100 ms) is consulted before each start;
      while open, starts wait for its cooldown.
      @raise Invalid_argument on an empty member list, duplicate member
      names, [concurrency < 1] or [blast_radius < 0]. *)

  val start : t -> unit
  val pause : t -> unit
  (** Stop launching new members; in-flight migrations finish. *)

  val resume : t -> unit
  val abort : t -> reason:string -> unit
  (** Stop launching; queued members become [Skipped].  In-flight
      migrations run to their own terminal state (their rollback logic
      owns the cleanup). *)

  val state : t -> state
  val progress : t -> (string * member_status) list
  (** Member order, stable. *)

  val in_flight : t -> int
  val breaker : t -> Breaker.t
  val rollbacks_total : t -> int

  val run : t -> unit
  (** {!start}, then step the engine until the fleet settles (done or
      aborted with nothing in flight). *)

  type report = {
    total : int;
    committed : int;
    rolled_back : int;
    failed : int;
    skipped : int;
    aborted : string option;
    breaker_trips : int;
    members : (string * member_status) list;
  }

  val report : t -> report
  val pp_report : Format.formatter -> report -> unit

  val render : t -> string
  (** The migration panel: per-switch stage, rollbacks_total, breaker
      state, fleet progress — what [harmlessctl migrate] and the
      dashboard print. *)

  val publish_metrics :
    ?registry:Telemetry.Registry.t -> ?labels:Telemetry.Registry.labels ->
    t -> unit
end
