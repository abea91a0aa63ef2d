(** A managed legacy switch: the {!Ethswitch.Legacy_switch} dataplane
    wrapped with a device identity, a live SNMP agent (MIB-2 system and
    interface groups plus a writable dot1qPvid column) and a NAPALM
    driver in the device's NOS dialect. *)

type vendor = Cisco_like | Arista_like | Juniper_like

type t

val create :
  switch:Ethswitch.Legacy_switch.t ->
  vendor:vendor ->
  ?model:string ->
  ?os_version:string ->
  ?serial:string ->
  unit ->
  t
(** Model/OS default to vendor-typical strings; the hostname is the
    switch's name. *)

val switch : t -> Ethswitch.Legacy_switch.t
val hostname : t -> string
val vendor : t -> vendor
val dialect : t -> (module Dialect.S)

val snmp : t -> Snmp.t
(** The device's SNMP agent.  Readable: system group, ifNumber, ifDescr/
    ifOperStatus/ifIn-OutUcastPkts per port, dot1qPvid per port.  Writable
    (community ["private"]): dot1qPvid — setting it moves an access port
    to that VLAN, the low-level knob HARMLESS uses. *)

val napalm : t -> Napalm.t
(** A connected NAPALM driver for this device. *)

val set_fault_plan : t -> Fault_plan.t option -> unit
(** Attach (or clear) a transient-failure plan covering the device's
    whole management surface: SNMP operations return [Timeout] and the
    NAPALM session operations ([load_candidate] / [commit] / [rollback])
    return a connection-timeout error whenever the plan says so.  SNMP
    reads inside NAPALM getters draw from the same sequence, so a flaky
    burst can also degrade fact discovery — exactly the mess a real
    flapping management connection produces. *)

val running_config : t -> Device_config.t
val running_config_text : t -> string
