(** Network nodes: anything with ports that sends and receives frames
    (hosts, legacy switches, software-switch servers).

    A node's behaviour is its {e handler}, invoked whenever a frame is
    delivered to one of its ports.  Transmission goes out through whatever
    a {!Link} attached to the port. *)

type t

type handler = t -> in_port:int -> Netpkt.Packet.t -> unit

val create : Engine.t -> name:string -> ports:int -> t
(** A node with ports numbered [0 .. ports-1] and a no-op handler.
    @raise Invalid_argument if [ports < 0]. *)

val name : t -> string
val engine : t -> Engine.t
val port_count : t -> int

val add_ports : t -> int -> int
(** [add_ports t n] appends [n] fresh ports, returning the index of the
    first new one. *)

val set_handler : t -> handler -> unit

val transmit : t -> port:int -> Netpkt.Packet.t -> unit
(** Send a frame out of [port].  If nothing is attached the frame is
    dropped and counted under [Tx_drop_unattached].
    @raise Invalid_argument on a bad port number. *)

val deliver : t -> port:int -> Netpkt.Packet.t -> unit
(** Hand a frame to the node as if it arrived on [port]; links call this,
    and tests may too.  Counts the frame on [port], runs taps, then the
    handler. *)

val attach : t -> port:int -> (Netpkt.Packet.t -> unit) -> unit
(** Wire the port's transmit side to a link endpoint.  Used by {!Link}.
    @raise Invalid_argument if already attached. *)

val detach : t -> port:int -> unit

val set_carrier : t -> port:int -> bool -> unit
(** Force the port's carrier signal (default up).  Dropping carrier on an
    attached port fires the {!on_attachment_change} watchers with
    [up = false] — the same signal a cable pull produces — and makes
    {!transmit} drop frames (counted under [Tx_drop_no_carrier]).  Faults
    use this to take a link down without tearing the attachment itself
    off, so the link can come back later. *)

val carrier : t -> port:int -> bool
(** A link is attached to [port] and its carrier is up. *)

val rx_packets : t -> port:int -> int
(** Frames delivered to [port].  @raise Invalid_argument on a bad port. *)

val tx_packets : t -> port:int -> int
(** Frames transmitted out of [port] (drops are not counted). *)

val rx_bytes : t -> port:int -> int
(** Wire bytes ({!Netpkt.Packet.wire_size}) delivered to [port] — what
    OpenFlow port stats report. *)

val tx_bytes : t -> port:int -> int

val rx_total : t -> int
(** Frames delivered, summed over all ports. *)

val tx_total : t -> int

val traffic_counters : t -> (string * int) list
(** The frame counters as named values for metrics export: node totals
    ["rx"] and ["tx"], and ["rx.<n>"], ["rx_bytes.<n>"], ["tx.<n>"],
    ["tx_bytes.<n>"] for each port [n] that received (transmitted) at
    least one frame.  Zero totals are left out. *)

(** {2 Drop ledger}

    Every frame a node discards is counted once, under one reason; the
    device built on the node counts its own reasons. *)

type drop =
  | Drop_bad_out_port  (** soft switch: output to a port it does not have *)
  | Drop_crashed  (** soft switch: received while crashed *)
  | Drop_disconnected_punt  (** soft switch: output to an absent controller *)
  | Drop_fail_secure  (** soft switch: table miss while disconnected *)
  | Drop_ingress_vlan  (** legacy switch: VLAN not allowed on the port *)
  | Drop_port_security  (** legacy switch: source MAC over the port's limit *)
  | Drop_rx_ring  (** soft switch: PMD receive ring full *)
  | Drop_same_port  (** legacy switch: destination is behind the ingress port *)
  | Drop_storm  (** legacy switch: broadcast over the storm-control rate *)
  | Drop_table_miss  (** soft switch: table miss with drop-on-miss *)
  | Tx_drop_no_carrier  (** {!transmit} on a port whose carrier is down *)
  | Tx_drop_unattached  (** {!transmit} on a port with no link *)

val drop : t -> drop -> unit
(** Count one dropped frame.  Allocates nothing. *)

val drops : t -> drop -> int

val drop_counters : t -> (string * int) list
(** The non-zero reasons for metrics export, sorted by name; a reason's
    name is its constructor in lower case (["drop_storm"],
    ["tx_drop_unattached"]). *)

type direction = Rx | Tx

val add_tap : t -> (direction -> int -> Netpkt.Packet.t -> unit) -> unit
(** Observe every frame the node receives or transmits (direction, port,
    frame).  Taps run before the handler and must not modify state other
    than their own. *)

val on_attachment_change : t -> (port:int -> up:bool -> unit) -> unit
(** Notify whenever a port is attached to or detached from a link — the
    simulator's carrier-detect signal.  Fires on {!attach} and {!detach}
    (links detach both ends on disconnect). *)
