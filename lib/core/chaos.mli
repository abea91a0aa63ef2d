(** Chaos harness: a full redundant-trunk HARMLESS deployment with every
    fault surface wired to a {!Simnet.Fault} injector, plus a scripted
    run loop that drives deterministic probe traffic through the storm
    and reports what broke and what healed.

    The rig ({!build}) is a {!Failover}-provisioned deployment —
    [num_hosts] hosts on access ports [0..n-1], primary trunk on legacy
    port [n] (SS_1 NIC 0), backup on [n+1] (SS_1 NIC 1) — with an
    L2-learning controller attached to SS_2 over a keepalive-enabled
    {!Sdnctl.Channel}, the watchdog running, and a seeded
    {!Mgmt.Fault_plan} on the device.  Registered fault targets:

    - ["channel"]: [down]/[up] — black-hole the OpenFlow connection;
    - ["mgmt"]: [flaky n] / [down] / [up] — transient NAPALM/SNMP
      failures;
    - ["trunk:primary"], ["trunk:backup"], ["host:<i>"]: [down]/[up]/
      [degrade loss=… jitter=…] on the corresponding link;
    - ["switch:ss1"], ["switch:ss2"]: [crash]/[restart].  A restarted
      SS_1 gets its translator rules re-pushed (it is manager-programmed
      static state); a restarted SS_2 waits for the channel to reconnect
      and resync its flows.

    Everything — fault schedule, traffic, loss draws, retry backoff — is
    a function of the engine and the seeds, so a chaos run is exactly
    reproducible. *)

type rig

val build :
  Simnet.Engine.t ->
  ?num_hosts:int ->
  ?seed:int ->
  ?mode:Softswitch.Soft_switch.connection_mode ->
  ?channel:Sdnctl.Channel.config ->
  ?watchdog_period:Simnet.Sim_time.span ->
  ?retry:Mgmt.Retry.policy ->
  ?failback:bool ->
  unit ->
  (rig, string) result
(** Defaults: 3 hosts, seed 42, [Fail_standalone] SS_2,
    a fast channel (2 ms keepalive, 5 ms echo timeout, 1–16 ms reconnect
    backoff), 2 ms watchdog, default retry policy, no failback.  Provisions, connects, attaches the controller and runs
    5 ms of sim time so the handshake settles; the management fault plan
    arms only after provisioning succeeds. *)

val engine : rig -> Simnet.Engine.t
val injector : rig -> Simnet.Fault.injector
val hosts : rig -> Simnet.Host.t array
val failover : rig -> Failover.t
val controller : rig -> Sdnctl.Controller.t
val device : rig -> Mgmt.Device.t
val channel : rig -> Sdnctl.Channel.t
val ss2 : rig -> Softswitch.Soft_switch.t
val ss1 : rig -> Softswitch.Soft_switch.t
val port_map : rig -> Port_map.t

(** {1 Pieces shared with {!Migration_rig}} *)

val default_channel_config : Sdnctl.Channel.config
(** The fast channel of {!build}'s default: 2 ms keepalive, 5 ms echo
    timeout, 1–16 ms reconnect backoff. *)

val link_handler :
  Simnet.Link.t -> Simnet.Fault.action -> (unit, string) result
(** A link's fault target: [down], [up] (which also clears any
    degradation) and [degrade loss=… jitter=…]. *)

val answered : Simnet.Host.t array -> int
(** Echo replies the hosts have received, in total. *)

val ping_ordered_pair : Simnet.Host.t array -> int -> seq:int -> unit
(** Ping the [k]th ordered host pair (cycling through all [n (n - 1)] of
    them) with sequence number [seq]. *)

(** What a chaos run did and how the deployment fared. *)
type report = {
  duration : Simnet.Sim_time.span;
  pings_sent : int;  (** probes sent during the storm *)
  pings_answered : int;
  probe_pairs : int;  (** post-storm recovery probe: one per pair *)
  probe_answered : int;
  faults : Simnet.Fault.applied list;
  reconnects : int;  (** channel re-establishments *)
  resyncs : int;  (** controller flow-state replays *)
  mgmt_retries : int;  (** management op retries (from [retries_total]) *)
  activation_retries : int;  (** watchdog activation retries *)
  failovers : int;
  failbacks : int;
  standalone_forwards : int;  (** packets SS_2 forwarded on its own *)
  channel_queue_drops : int;
  channel_dropped : int;  (** control messages lost, both directions *)
  mgmt_faults_injected : int;
  watchdog : Failover.watchdog_status;
  final_active : [ `Primary | `Backup ];
  final_connected : bool;
  recovered : bool;  (** every recovery-probe pair answered *)
  slo_evaluations : int;  (** alert-engine evaluation ticks *)
  slo_breaches : (string * (int * int option) list) list;
      (** per SLO rule, its firing windows as [(fired_at_ns,
          resolved_at_ns)] — [None] = still firing at the end.  Rules:
          ["control-channel-up"] (channel observed disconnected) and
          ["probe-liveness"] (ping answers stalled for 3 ms). *)
  stage_slis : (string * Telemetry.Profile.stats) list;
      (** per-stage latency SLIs (ns) folded from the traced recovery
          probe, stages in first-appearance order along the walk — how
          the healed datapath performs, not just whether it answers. *)
  postmortem : Telemetry.Postmortem.snapshot option;
      (** captured at the end of the run when any flight-recorder
          trigger (fault injection, alert firing, rollback/abort) fired;
          [None] for an uneventful run.  Same seed and script → the
          same snapshot, byte for byte. *)
}

val run :
  rig ->
  script:string ->
  duration:Simnet.Sim_time.span ->
  ?ping_interval:Simnet.Sim_time.span ->
  unit ->
  (report, string) result
(** Schedule the fault script (see {!Simnet.Fault.parse_script} for the
    format), drive one ping per [ping_interval] (default 1 ms) cycling
    through every ordered host pair for [duration], then send a final
    recovery probe to every pair and wait 20 ms of grace.  [Error] only
    for an unparsable script or nonpositive duration — fault outcomes
    land in the report, not in errors.

    The run executes under a freshly installed {!Telemetry.Trace}
    recorder (any previously installed recorder is restored afterwards)
    with the engine as its clock, and finishes with a
    {!Telemetry.Postmortem.capture} over the recorded events, the hops
    of the recovery probe and the probe-liveness series. *)

val pp_report : Format.formatter -> report -> unit
