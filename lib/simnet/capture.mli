(** Packet capture: tap one or more nodes and record every frame they
    send or receive, with timestamps — the simulator's tcpdump.  Tests and
    the Fig. 1 walk-through use captures to assert on exact packet paths. *)

type entry = {
  time : Sim_time.t;
  node : string;
  dir : Node.direction;
  port : int;
  packet : Netpkt.Packet.t;
}

type t

val create : unit -> t

val attach : t -> Node.t -> unit
(** Start recording this node's traffic (both directions, all ports). *)

val entries : t -> entry list
(** All recorded entries, oldest first. *)

val filter : t -> (entry -> bool) -> entry list
val count : t -> (entry -> bool) -> int

val dump : Format.formatter -> t -> unit
(** One line per entry, tcpdump-style. *)

val to_pcap : ?dir:Node.direction -> t -> string
(** The capture as a classic libpcap file (magic [0xa1b2c3d4],
    microsecond timestamps, LINKTYPE_ETHERNET) — openable in
    Wireshark/tcpdump.  [dir] restricts to one direction (default: rx
    only, so frames aren't duplicated when both ends are tapped). *)

val save_pcap : ?dir:Node.direction -> t -> path:string -> unit
(** Write {!to_pcap} to a file. *)
