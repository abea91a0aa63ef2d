(** Reliable TCP sessions over {!Host}s: three-way handshake, MSS
    segmentation, a fixed in-flight window with cumulative ACKs,
    timeout-based retransmission, and FIN teardown.

    This is a deliberately small but {e correct-under-loss} TCP: enough
    to demonstrate that applications survive impaired links through the
    HARMLESS fabric — not a congestion-control study (the window is
    fixed; no slow start, no SACK).

    Built entirely on the public host API ({!Host.on_receive} /
    {!Host.send}), so it composes with every deployment unchanged. *)

type state = Listening | Syn_sent | Syn_received | Established | Fin_sent | Closed

type t
(** One endpoint of one connection. *)

val listen : Host.t -> port:int -> t
(** Accept a single inbound connection on [port].  (One listener, one
    connection — spawn more listeners for more connections.) *)

val connect :
  Host.t ->
  dst_mac:Netpkt.Mac_addr.t ->
  dst_ip:Netpkt.Ipv4_addr.t ->
  dst_port:int ->
  ?src_port:int ->
  ?mss:int ->
  ?window:int ->
  ?rto:Sim_time.span ->
  unit ->
  t
(** Open a connection (SYN goes out immediately; run the engine).
    Defaults: source port 45000, MSS 1460 bytes, window 8 segments,
    RTO 20 ms. *)

val send : t -> string -> unit
(** Queue bytes for reliable delivery (transmitted as the window allows;
    queuing before the handshake completes is fine). *)

val close : t -> unit
(** Finish sending whatever is queued, then FIN. *)

val state : t -> state
val received : t -> string
(** In-order bytes delivered to this endpoint so far. *)

val bytes_acked : t -> int
(** Queued bytes confirmed by the peer. *)

val retransmissions : t -> int
