(** Redundant-trunk HARMLESS: the trunk is the architecture's single
    point of failure, so this module provisions {e two} trunk links —
    primary active, backup administratively shut on the legacy side —
    and fails over by reconfiguring both ends:

    + the Manager pushes a new config (backup trunk up, primary shut)
      through the device's NAPALM driver;
    + SS_1's translator rules are reinstalled to hairpin via the backup
      NIC port.

    Hosts keep their VLAN mapping; the controller and SS_2 never notice.

    SS_1 is {!Server.build}'s layout with two trunk NICs: port 0 faces
    the primary trunk, port 1 the backup, patch ports from 2. *)

type t

val provision :
  Simnet.Engine.t ->
  device:Mgmt.Device.t ->
  primary_trunk:int ->
  backup_trunk:int ->
  access_ports:int list ->
  ?base_vid:int ->
  ?dataplane:Softswitch.Soft_switch.dataplane_kind ->
  ?pmd:Softswitch.Pmd.config ->
  unit ->
  (t, string) result
(** Like {!Manager.provision} but with a standby trunk, cabled by
    {!connect_trunks}. *)

val connect_trunks : t -> Simnet.Link.t * Simnet.Link.t
(** Link the device's [primary_trunk] and [backup_trunk] ports to SS_1's
    two trunk NICs at 10 G; returns (primary, backup). *)

val ss1 : t -> Softswitch.Soft_switch.t
val ss2 : t -> Softswitch.Soft_switch.t
val port_map : t -> Port_map.t
val active : t -> [ `Primary | `Backup ]

val activate_backup : t -> (unit, string) result
(** Perform the failover now (idempotent once on backup). *)

val activate_primary : t -> (unit, string) result
(** Fail back: reactivate the primary trunk and shut the backup
    (idempotent once on primary). *)

val reinstall_translator : t -> unit
(** Re-push SS_1's translator rules for the {!active} trunk's NIC: both
    activations call this, and so does a restart of SS_1. *)

(** The watchdog's lifecycle, observable via {!watchdog_status}. *)
type watchdog_status =
  | Idle  (** not running: never started, stopped, or done *)
  | Watching  (** probing the active trunk's carrier every period *)
  | Activating  (** trunk loss detected; activation in progress/retrying *)
  | Gave_up of string
      (** every activation attempt failed; the error was handed to
          [on_failure] and is kept in {!last_error} *)

val start_watchdog :
  ?policy:Mgmt.Retry.policy ->
  ?failback:bool ->
  ?on_failure:(string -> unit) ->
  t ->
  period:Simnet.Sim_time.span ->
  unit
(** Probe the active trunk NIC's carrier every [period].  When it drops,
    activate the other trunk under [policy] (default
    {!Mgmt.Retry.default}): failed activations — e.g. a flapping
    management connection mid-failover — retry with exponential backoff
    in sim time instead of silently killing the watchdog.  If every
    attempt fails the watchdog reports [Gave_up] and calls [on_failure].

    With [failback] (default false) the watchdog keeps running after a
    successful failover: it returns to the primary trunk when its
    carrier comes back, and handles a double failure (backup trunk dying
    too) the same way.  Note a failback watchdog reschedules forever —
    run the engine with [~until].  Without [failback] it stops after one
    successful failover, like the event queue draining, so legacy
    unbounded runs still terminate.

    Successful activations increment [failovers_total{direction=…}];
    retries show up in [retries_total{op="failover.activate_…"}]. *)

val watchdog_status : t -> watchdog_status

val failovers : t -> int
(** Completed primary→backup failovers. *)

val failbacks : t -> int
(** Completed backup→primary failbacks. *)

val activation_retries : t -> int
(** Activation attempts the watchdog had to repeat. *)

val last_error : t -> string option
(** The most recent activation error, cleared on success. *)
