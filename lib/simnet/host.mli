(** End hosts: single-port nodes with a MAC and an IPv4 address and a
    small protocol personality — enough to source and sink realistic
    traffic:

    - answers ARP requests for its own address and learns from replies;
    - answers ICMP echo requests;
    - sinks UDP, recording one-way latency for timestamped probes
      (see {!Traffic}); an optional UDP echo service mirrors datagrams;
    - optionally serves HTTP: a GET for a configured page returns 200,
      anything else 404 (TCP is modelled without a handshake: requests
      and responses ride single segments, which is all the use cases
      need). *)

type t

val create :
  Engine.t ->
  name:string ->
  mac:Netpkt.Mac_addr.t ->
  ip:Netpkt.Ipv4_addr.t ->
  unit ->
  t

val node : t -> Node.t
(** The underlying node; port 0 is the host's only NIC. *)

val name : t -> string
val mac : t -> Netpkt.Mac_addr.t
val ip : t -> Netpkt.Ipv4_addr.t

val send : t -> Netpkt.Packet.t -> unit
(** Transmit a frame out of the NIC. *)

val enable_udp_echo : t -> port:int -> unit
(** Mirror any UDP datagram arriving on [port] back to its sender. *)

val serve_http : t -> pages:string list -> unit
(** Become a web server: GET for a path in [pages] → 200 with a body,
    otherwise 404.  Responses are addressed using the request's source
    fields. *)

val http_get : t -> server_mac:Netpkt.Mac_addr.t -> server_ip:Netpkt.Ipv4_addr.t ->
  host:string -> path:string -> src_port:int -> unit
(** Issue an HTTP GET (single TCP segment carrying the request). *)

val serve_dns : t -> records:(string * Netpkt.Ipv4_addr.t) list -> unit
(** Become a DNS server answering A queries (UDP port 53) from the given
    zone; unknown names get NXDomain. *)

val resolve :
  t -> server_mac:Netpkt.Mac_addr.t -> server_ip:Netpkt.Ipv4_addr.t ->
  string -> unit
(** Send an A query for a name; answers show up in {!resolved}. *)

val resolved : t -> (string * Netpkt.Ipv4_addr.t) list
(** Name→address pairs learned from DNS responses, oldest first. *)

val nxdomains : t -> int
(** NXDomain responses received. *)

val ping : t -> dst_mac:Netpkt.Mac_addr.t -> dst_ip:Netpkt.Ipv4_addr.t -> seq:int -> unit

val received_count : t -> int
(** Frames delivered to the NIC: the node's port-0 rx counter.  The host
    keeps no log of the frames themselves; observe them with
    {!on_receive} or a {!Capture}. *)

val udp_received : t -> int
val http_responses : t -> (int * string) list
(** Status and body of each HTTP response received, oldest first. *)

val echo_replies : t -> int
(** ICMP echo replies received. *)

val latency : t -> Telemetry.Hdr.t
(** One-way latency of timestamped UDP probes addressed to this host. *)

val arp_cache : t -> (Netpkt.Ipv4_addr.t * Netpkt.Mac_addr.t) list

val on_receive : t -> (Netpkt.Packet.t -> unit) -> unit
(** Extra user callback invoked on every delivered frame, before the
    host's own protocol handling: a receive-side {!Node.add_tap} on
    {!node}.  Frames delivered before the callback is registered are not
    replayed. *)
