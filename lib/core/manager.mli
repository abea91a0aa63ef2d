(** The HARMLESS Manager: the automation that turns a managed legacy
    switch plus a server into one OpenFlow switch (the Python/BASH tool of
    the paper, reimplemented as a library).

    Given a device handle (NAPALM driver + SNMP agent) and the desired
    OpenFlow-enabled port set, {!provision}:

    + discovers the device (facts, interfaces) through NAPALM;
    + computes the port ↔ VLAN mapping;
    + generates the target configuration — one access VLAN per managed
      port, the trunk carrying exactly those VLANs — renders it in the
      device's own NOS dialect, stages it as a candidate and commits it;
    + verifies the result out-of-band over SNMP (dot1qPvid walk);
    + instantiates SS_1 and SS_2 with {!Server.build}, which patches them
      together and installs the translator rules into SS_1.

    The returned SS_2 is a plain OpenFlow switch from the controller's
    point of view: its port [i] {e is} the [i]-th managed access port. *)

type report = {
  facts : Mgmt.Napalm.facts;
  config_diff : string list;  (** what the commit changed *)
  steps : string list;        (** human-readable action log, in order *)
}

type provisioned = {
  ss1 : Softswitch.Soft_switch.t;
  ss2 : Softswitch.Soft_switch.t;
  port_map : Port_map.t;
  report : report;
}

val provision :
  Simnet.Engine.t ->
  device:Mgmt.Device.t ->
  trunk_port:int ->
  access_ports:int list ->
  ?base_vid:int ->
  ?dataplane:Softswitch.Soft_switch.dataplane_kind ->
  ?pmd:Softswitch.Pmd.config ->
  ?retry:Mgmt.Retry.policy ->
  unit ->
  (provisioned, string) result
(** Fails (with the device rolled back where possible) if the port set is
    invalid for the device, the commit is rejected, or verification finds
    a mismatch. *)

val configure_device :
  device:Mgmt.Device.t ->
  trunk_port:int ->
  access_ports:int list ->
  ?base_vid:int ->
  ?disabled_ports:int list ->
  ?retry:Mgmt.Retry.policy ->
  ?rng:Simnet.Rng.t ->
  ?deadline:Simnet.Sim_time.span ->
  unit ->
  (Port_map.t * report, string) result
(** Steps 1–4 of {!provision} only: discover, compute the mapping,
    commit the tagging configuration and verify it over SNMP — without
    creating any software switches.  {!Scaleout} and {!Failover} call
    this and then {!Server.build}; {!Failover} uses [disabled_ports] to
    keep the standby trunk shut.  Ports in [disabled_ports] are forced to
    [Disabled] in the candidate.

    Every management step runs under [retry] (default {!Mgmt.Retry.default}):
    [load_candidate], [commit] and [rollback] retry on any error;
    SNMP verification retries only transient ({!Mgmt.Snmp.Timeout})
    errors — a genuine VLAN mismatch triggers rollback immediately.
    When verification {e and} rollback both fail, the error carries both
    messages ("…; rollback also failed: … — device state unknown"), so
    the operator knows the device was left in an unknown state.

    [rng] feeds the retry policy's full jitter (see {!Mgmt.Retry}).
    [deadline] is a {e total} backoff budget shared by every retried
    step (load, commit, verify, rollback): when the accumulated backoff
    would exceed it, the run stops with a ["deadline exceeded…"] error
    — recognisable via {!Mgmt.Retry.is_deadline_error} and counted in
    [deadline_exceeded_total{op}] — distinct from the per-operation
    "gave up after N attempts" transient give-up. *)

val precheck :
  device:Mgmt.Device.t ->
  trunk_port:int ->
  access_ports:int list ->
  ?base_vid:int ->
  ?disabled_ports:int list ->
  unit ->
  (Port_map.t * Mgmt.Napalm.facts * string list, string) result
(** The read-only first phase of {!configure_device}: discover the
    device, validate the port set, compute the mapping.  Touches
    nothing; the returned strings are the action-log steps taken.
    {!Migration} runs this as its own journaled stage. *)

val push_config :
  device:Mgmt.Device.t ->
  trunk_port:int ->
  map:Port_map.t ->
  ?disabled_ports:int list ->
  ?retry:Mgmt.Retry.policy ->
  ?rng:Simnet.Rng.t ->
  ?budget:Mgmt.Retry.budget ->
  ?log:(string -> unit) ->
  unit ->
  (string list, string) result
(** The mutating second phase: render the candidate for [map], stage it,
    commit, verify over SNMP, roll back on a verify mismatch.  Returns
    the config diff.  [budget] is shared across all retried steps;
    [log] receives the same step strings {!configure_device} reports. *)

val candidate_config :
  device:Mgmt.Device.t ->
  trunk_port:int ->
  map:Port_map.t ->
  ?disabled_ports:int list ->
  unit ->
  Mgmt.Device_config.t
(** The exact structured configuration {!push_config} would commit —
    what WAL recovery compares the running config against to decide
    whether a crashed transaction's commit landed. *)

val deprovision : Mgmt.Device.t -> (unit, string) result
(** Roll the legacy switch back to its pre-HARMLESS configuration. *)
