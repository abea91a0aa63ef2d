(** Full Ethernet frames: MAC header, a stack of 802.1Q tags, and a typed
    network-layer payload.  This is the unit every dataplane in the
    repository forwards. *)

type l3 =
  | Ip of Ipv4.t
  | Arp of Arp.t
  | Raw of Ethertype.t * string
      (** Payload of a frame type the library does not model. *)

type t = {
  dst : Mac_addr.t;
  src : Mac_addr.t;
  vlans : Vlan.t list;  (** outermost tag first *)
  l3 : l3;
}

val make : ?vlans:Vlan.t list -> dst:Mac_addr.t -> src:Mac_addr.t -> l3 -> t

val ethertype : t -> Ethertype.t
(** The {e inner} EtherType, i.e. the type of [l3], regardless of tags. *)

val push_vlan : Vlan.t -> t -> t
(** Prepend a tag (becomes the outermost). *)

val pop_vlan : t -> (Vlan.t * t) option
(** Remove the outermost tag; [None] if untagged. *)

val strip_vlan : t -> t
(** The frame without its outermost tag; an untagged frame is returned
    as it is (physically).  Allocates one record on a tagged frame and
    nothing on an untagged one. *)

val outer_vid : t -> Vlan.vid option
(** VLAN id of the outermost tag, if any. *)

val set_outer_vid : Vlan.vid -> t -> t
(** Rewrite the outermost tag's VLAN id.
    @raise Invalid_argument if the frame is untagged. *)

val payload_size : t -> int
(** Size of everything after the MAC/VLAN headers. *)

val size : t -> int
(** Logical frame size: headers + payload, without padding or FCS. *)

val wire_size : t -> int
(** On-the-wire size used for serialization-delay computations: logical
    size padded to the 60-byte Ethernet minimum, plus the 4-byte FCS. *)

val encode : t -> string
val decode : string -> t
(** @raise Wire.Truncated / @raise Wire.Malformed on bad input. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Flattened header-field view used by flow matching and caches.

    Every field is a plain int, so a view is one 12-word block: MACs as
    48-bit ints ({!Mac_addr.to_int}), IPv4 addresses as unsigned 32-bit
    ints ({!Ipv4_addr.to_int}), every other field as its value.  A field
    the frame lacks holds {!absent}.  A real value is never negative, so
    [absent] never equals one; a test of a negative value must still fail
    on an absent field, which is the tester's job. *)
module Fields : sig
  type packet := t

  type t = {
    eth_dst : int;
    eth_src : int;
    eth_type : int;   (** inner EtherType *)
    vlan_vid : int;   (** outermost tag *)
    vlan_pcp : int;
    ip_src : int;
    ip_dst : int;
    ip_proto : int;
    ip_tos : int;
    l4_src : int;     (** TCP/UDP ports only *)
    l4_dst : int;
  }

  val absent : int
  (** [-1]: the value of a field the frame does not carry. *)

  val of_packet : packet -> t
  (** Allocates the record and nothing else. *)
end

(** Canonical 5-tuple flow identity used by the sampled-flow telemetry
    plane (and, later, by the zero-alloc fast path's flow cache). *)
module Flow_key : sig
  type t = {
    fk_ety : int;          (** inner EtherType *)
    fk_proto : int;        (** IP protocol number; [-1] for non-IP *)
    fk_src : Ipv4_addr.t;  (** [Ipv4_addr.any] for non-IP *)
    fk_dst : Ipv4_addr.t;
    fk_sport : int;        (** 0 when the L4 protocol has no ports *)
    fk_dport : int;
  }

  val equal : t -> t -> bool

  val compare : t -> t -> int
  (** Total order: ethertype, protocol, src, dst, sport, dport. *)

  val hash : ?seed:int -> t -> int
  (** Deterministic seeded hash (explicit splitmix-style mixing, not
      [Hashtbl.hash]): equal keys always hash equal, across runs and
      OCaml versions.  Non-negative.  Default [seed] 0. *)

  val to_string : t -> string
  (** e.g. ["udp 10.0.0.1:4242>10.0.1.9:80"], ["icmp 10.0.0.1>10.0.0.2"],
      ["ety:0x0806"].  Injective per protocol class — usable as a
      deterministic table key. *)

  val pp : Format.formatter -> t -> unit
end

val flow_key : t -> Flow_key.t
(** The frame's 5-tuple identity; VLAN tags are deliberately excluded so
    a flow keeps one identity across the HARMLESS translator's tag
    push/pop. *)

val flow_hash : seed:int -> t -> int
(** [Flow_key.hash ~seed (flow_key t)], computed without materializing
    the key record (allocation-free on IP frames).  [seed] is required,
    as an optional one would be boxed at every call. *)

(** Convenience constructors used by tests, examples and workloads. *)
val udp :
  ?vlans:Vlan.t list ->
  dst:Mac_addr.t -> src:Mac_addr.t ->
  ip_src:Ipv4_addr.t -> ip_dst:Ipv4_addr.t ->
  src_port:int -> dst_port:int ->
  string -> t

val tcp :
  ?vlans:Vlan.t list ->
  ?flags:Tcp.flags ->
  dst:Mac_addr.t -> src:Mac_addr.t ->
  ip_src:Ipv4_addr.t -> ip_dst:Ipv4_addr.t ->
  src_port:int -> dst_port:int ->
  string -> t

val icmp_echo :
  dst:Mac_addr.t -> src:Mac_addr.t ->
  ip_src:Ipv4_addr.t -> ip_dst:Ipv4_addr.t ->
  id:int -> seq:int -> t

val arp_request :
  src_mac:Mac_addr.t -> src_ip:Ipv4_addr.t -> target_ip:Ipv4_addr.t -> t

val pad_to : int -> t -> t
(** [pad_to n pkt] grows an UDP/TCP/Raw payload so that {!wire_size}
    reaches at least [n] bytes (used by workload generators to hit exact
    frame sizes).  Frames already at least [n] bytes are unchanged. *)
