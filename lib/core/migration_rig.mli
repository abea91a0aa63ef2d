(** The validation harness for {!Migration}: a multi-switch legacy
    network on which migrations run with live probe traffic, scripted
    fault injection and WAL crash injection.

    The rig builds N independent legacy switches (each with its own
    hosts on access ports and a reserved trunk port) plus one shared
    OpenFlow controller.  A switch's {!Migration.hooks} bring the
    HARMLESS sandwich up mid-simulation — SS_1/SS_2, patch ports, the
    trunk link, controller attachment, a {!Sdnctl.Stats_poller} — and
    its {!Migration.gate} judges an answered-probes liveness SLO over
    {!Telemetry.Alert}, exactly the make-before-break cutover the
    engine promises.

    Two canned scenarios drive the acceptance criteria:

    - {!crash_sweep} re-runs one migration from scratch for {e every}
      WAL record boundary, crashing the manager right after that record
      persists, then recovers from a serialized round-trip of the log
      and asserts the config-consistency invariant (running config is
      the pre-migration config or the candidate, never a mix), recovery
      idempotence, and end-to-end probe connectivity;
    - {!canary_breach} degrades the freshly cut-over trunk to 95%
      loss mid-canary and asserts the SLO gate rolls the switch back
      and the fleet aborts on its blast-radius limit.

    Same seed → same report, byte for byte. *)

type t

val build :
  ?num_switches:int -> ?num_hosts:int -> seed:int -> unit -> (t, string) result
(** Defaults: 3 switches, 2 hosts each.  Needs [num_switches >= 1] and
    [num_hosts >= 2]. *)

val engine : t -> Simnet.Engine.t
val wal : t -> Mgmt.Txn.t
val controller : t -> Sdnctl.Controller.t
val device : t -> int -> Mgmt.Device.t

val member : t -> int -> Migration.Fleet.member
(** Switch [i] as a fleet member: plan, liveness gate, sandwich hooks. *)

val fleet :
  ?concurrency:int ->
  ?blast_radius:int ->
  ?breaker:Migration.Breaker.t ->
  ?deadline:Simnet.Sim_time.span ->
  t ->
  Migration.Fleet.t
(** A fleet over every switch, seeded from the rig's seed. *)

val probe_all : ?grace:Simnet.Sim_time.span -> t -> bool
(** Ping every ordered host pair within every switch and run the engine
    for [grace] (default 25 ms): true iff every ping was answered —
    through the sandwich where committed, through the legacy switch
    where not. *)

(** {2 Crash sweep} *)

type point = {
  crash_after : int;   (** the WAL append the crash fired on *)
  crashed_at : string; (** where the machine says it died *)
  resolution : string; (** what WAL replay decided *)
  recovered : string;  (** recovery's terminal status *)
  consistent : bool;   (** running config = before xor candidate *)
  idempotent : bool;   (** second recovery: same verdict, no new records *)
  probe_ok : bool;     (** all probes answered after recovery *)
  wal_records : int;   (** log length after recovery *)
}

type sweep = {
  seed : int;
  num_hosts : int;
  baseline_records : int; (** WAL length of the uncrashed run *)
  baseline_status : string;
  baseline_probe_ok : bool;
  points : point list;    (** one per crash boundary, in order *)
  ok : bool;
}

val crash_sweep : ?num_hosts:int -> seed:int -> unit -> (sweep, string) result
(** Run the migration once cleanly to learn the WAL shape, then once
    per record boundary with a crash armed there.  Each crashed run
    uses a fresh rig with the same seed; recovery always goes through
    a {!Mgmt.Txn.to_string}/{!Mgmt.Txn.of_string} round-trip — the log
    a fresh manager process would actually read. *)

val render_sweep : sweep -> string
(** Deterministic, line-per-point report (the CI artifact). *)

(** {2 Canary breach} *)

type breach = {
  seed : int;
  member : string;          (** the canary that got hurt *)
  member_status : string;
  rollback_reason : string;
  aborted : bool;
  skipped : int;
  rollbacks_total : int;
  breaker_trips : int;
  probe_ok : bool;          (** connectivity restored after rollback *)
  panel : string;           (** the final fleet panel *)
  ok : bool;
  postmortem : Telemetry.Postmortem.snapshot option;
      (** captured at the end of the run (the trunk degradation is the
          trigger); same seed → the same snapshot, byte for byte *)
}

val canary_breach : ?num_hosts:int -> seed:int -> unit -> (breach, string) result
(** A 3-switch fleet with [blast_radius = 0]: 6 ms into the first
    switch's canary the trunk link degrades to 95% loss, the liveness
    SLO fires, the switch rolls back, and the fleet aborts — the
    remaining switches are never touched.  Runs under a freshly
    installed {!Telemetry.Trace} recorder (restored afterwards) and
    finishes with a {!Telemetry.Postmortem.capture} whose timeline
    names the trunk degradation as the root cause. *)

val render_breach : breach -> string
