(** A legacy (non-SDN) Ethernet switch: transparent 802.1Q bridging with
    MAC learning — the cheap, dumb, high-port-density box HARMLESS
    breathes new life into.

    Forwarding pipeline per frame: classify ingress VLAN (drop if the
    port/tag combination is not allowed), learn the source address, look
    up the destination (flood the VLAN on miss or for group addresses),
    then re-encapsulate per egress-port configuration.  A fixed
    processing delay models the store-and-forward ASIC latency. *)

type t

val create :
  Simnet.Engine.t ->
  name:string ->
  ports:int ->
  ?processing_delay:Simnet.Sim_time.span ->
  ?mac_table_capacity:int ->
  ?mac_aging:Simnet.Sim_time.span ->
  unit ->
  t
(** Defaults: 4 us processing delay, 8192-entry table, 300 s aging. *)

val node : t -> Simnet.Node.t
val name : t -> string
val port_count : t -> int

val set_port_mode : t -> port:int -> Port_config.mode -> unit
(** Reconfigure a port; the MAC entries learned on it are flushed.
    @raise Invalid_argument on a bad port number. *)

val port_mode : t -> port:int -> Port_config.mode
val mac_table : t -> Mac_table.t

val counters : t -> Simnet.Stats.Counter.t
(** Includes ["fwd"], ["flood"], ["drop_ingress_vlan"], ["drop_same_port"]
    and the node's drop reasons.  Per-port frame counts are on {!node}
    ({!Simnet.Node.rx_packets} and friends). *)

val vlans_in_use : t -> int list
(** Sorted list of every VLAN some port is a member of. *)

val set_storm_control : t -> port:int -> pps:int option -> unit
(** Cap broadcast/multicast ingress on a port to [pps] packets per second
    (token bucket with a 100 ms burst), or [None] to remove the cap —
    the usual low-end-switch protection against broadcast storms.
    Violations count under ["drop_storm"].
    @raise Invalid_argument on a bad port or non-positive rate. *)

val storm_control : t -> port:int -> int option

val set_port_security : t -> port:int -> max_macs:int option -> unit
(** Limit how many source MACs may live behind a port (classic port
    security, violation action "protect": frames from addresses beyond
    the limit are dropped and counted under ["drop_port_security"]).
    @raise Invalid_argument on a bad port or non-positive limit. *)

val set_mirror : t -> dst:int option -> unit
(** Configure a SPAN (mirror) port: a copy of every frame the switch
    forwards or floods is also transmitted, unmodified and untagged, out
    of [dst] (which should not otherwise participate in switching).
    [None] disables.  @raise Invalid_argument on a bad port. *)

val mirror : t -> int option

val publish_metrics :
  ?registry:Telemetry.Registry.t -> ?labels:Telemetry.Registry.labels ->
  t -> unit
(** Snapshot the switch's forwarding counters, its node's traffic
    counters ({!Simnet.Node.traffic_counters}) and MAC-table occupancy
    into gauges named [ethswitch_*].  Pull-based; nothing is recorded
    until called. *)
