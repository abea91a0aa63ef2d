(** MAC learning table of a legacy L2 switch: maps (VLAN, MAC) to the
    port where the address was last seen, with aging and a capacity
    limit (the least recently learned entry is evicted when full, as
    low-end switches do).  Learning, lookup, eviction and {!count_port}
    are (amortised) O(1), so a MAC flood past capacity costs no more per
    frame than normal traffic. *)

type t

val create : ?capacity:int -> ?aging:Simnet.Sim_time.span -> unit -> t
(** Defaults: capacity 8192 entries, aging 300 s (the 802.1D default). *)

val learn :
  t -> now:Simnet.Sim_time.t -> vlan:int -> mac:Netpkt.Mac_addr.t -> port:int -> unit
(** Insert or refresh an entry.  Multicast/broadcast sources are ignored.
    @raise Invalid_argument if [port < 0]. *)

val lookup :
  t -> now:Simnet.Sim_time.t -> vlan:int -> mac:Netpkt.Mac_addr.t -> int option
(** The port for (vlan, mac), unless unknown or aged out (expired entries
    are removed on the fly). *)

val entry_count : t -> int

val count_port : t -> now:Simnet.Sim_time.t -> port:int -> int
(** Live entries learned on one port.  Entries aged out by [now] are
    removed first, oldest first, at amortised O(1) cost. *)

val flush : t -> unit
val flush_port : t -> port:int -> unit
(** Forget everything learned on [port] (used on topology change). *)
