(** OpenFlow matches: a conjunction of (optionally masked) header-field
    tests against a packet's {!Netpkt.Packet.Fields} view plus the ingress
    port.  An absent test is a wildcard.

    Field prerequisites follow OpenFlow semantics implicitly: a test on a
    field the packet does not carry (e.g. [ip_src] on an ARP frame) simply
    fails, so rules behave as if guarded by their protocol preconditions. *)

type mac_test = { value : Netpkt.Mac_addr.t; mask : Netpkt.Mac_addr.t }
(** Bits set in [mask] must match [value]. *)

type vlan_test =
  | Absent        (** matches only untagged frames (OFPVID_NONE) *)
  | Present       (** matches any tagged frame (OFPVID_PRESENT) *)
  | Vid of int    (** matches a tagged frame with this VID *)

type t = {
  in_port : int option;
  eth_dst : mac_test option;
  eth_src : mac_test option;
  eth_type : int option;
  vlan : vlan_test option;
  vlan_pcp : int option;
  ip_src : Netpkt.Ipv4_addr.Prefix.t option;
  ip_dst : Netpkt.Ipv4_addr.Prefix.t option;
  ip_proto : int option;
  ip_tos : int option;
  l4_src : int option;
  l4_dst : int option;
}

val any : t
(** The all-wildcard match. *)

(** Builder combinators, e.g.
    [Of_match.(any |> in_port 3 |> vid 101)]. *)

val in_port : int -> t -> t
val eth_dst : ?mask:Netpkt.Mac_addr.t -> Netpkt.Mac_addr.t -> t -> t
val eth_src : ?mask:Netpkt.Mac_addr.t -> Netpkt.Mac_addr.t -> t -> t
val eth_type : int -> t -> t
val vlan_absent : t -> t
val vlan_present : t -> t
val vid : int -> t -> t
val vlan_pcp : int -> t -> t
val ip_src : Netpkt.Ipv4_addr.Prefix.t -> t -> t
val ip_dst : Netpkt.Ipv4_addr.Prefix.t -> t -> t
val ip_proto : int -> t -> t
val ip_tos : int -> t -> t
val l4_src : int -> t -> t
val l4_dst : int -> t -> t

val matches : t -> in_port:int -> Netpkt.Packet.Fields.t -> bool

val matches_packet : t -> in_port:int -> Netpkt.Packet.t -> bool
(** Convenience: [matches] on [Fields.of_packet]. *)

val subsumes : t -> t -> bool
(** [subsumes a b]: every packet matched by [b] is matched by [a]
    (conservative: may return [false] for exotic mask overlaps, never a
    wrong [true]). *)

val is_exact_overlap : t -> t -> bool
(** {!equal} — what OpenFlow uses to decide whether a flow-mod replaces
    an existing entry of equal priority. *)

val wildcard_count : t -> int
(** Number of absent tests (12 = match-all). *)

val equal : t -> t -> bool
(** Structural equality, compared field by field; allocates nothing. *)

val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
