(** NetKAT-lite policy syntax.

    A policy describes, per packet, a {e set} of output packets: predicates
    filter, modifications rewrite header fields, [union] runs both operands
    on the same input and takes the union of their outputs, [seq] pipes the
    outputs of the first operand through the second, and [orelse] falls back
    to its right operand only when the left one produced nothing (the
    priority-table idiom: "if no higher band matched").

    Two side-effecting primitives extend the pure algebra so the four
    controller apps can be expressed: [Police] runs the packet through a
    token-bucket meter (identified by an explicit [meter_id] so that the
    compiled table and the interpreter share bucket state granularity),
    and [Balance] picks one modification list out of a bucket list by
    flow hash (compiled to an OpenFlow select group).

    Locations are just another field ([Loc]): testing it reads the ingress
    port, modifying it sets the egress. [Disc] is an explicit discard
    location — unlike an empty output set it keeps earlier side effects
    (metering) observable, as a pipeline that meters a packet before a
    later stage drops it must.

    [Pass] is "no decision": the packet leaves this policy's table as a
    table miss and goes to whatever sits below it (the next app's rules,
    or the switch's miss behaviour).  It is a location write like any
    other, so it composes the way [Disc] does: under [seq] a later [Loc]
    write overrides it and a later [Loc] test fails on it; under
    [orelse] it is an answer, so [orelse pass q] never reaches [q] (use
    [drop] to fall through).  Only a policy whose final fallback is
    [pass] compiles with it ({!Compile}). *)

type location =
  | Phys of int  (** a physical port *)
  | Flood  (** all ports except ingress *)
  | Ctrl of int  (** punt to controller, with max bytes of payload *)
  | Disc  (** explicit discard: no output, side effects retained *)
  | Pass  (** no decision: a table miss *)

type field =
  | Loc
  | Eth_type
  | Vlan_vid
  | Eth_src
  | Eth_dst
  | Ip_proto
  | Ip_src
  | Ip_dst
  | Ip_tos
  | L4_src
  | L4_dst

type value =
  | Int of int
  | Mac of Netpkt.Mac_addr.t
  | Ip of Netpkt.Ipv4_addr.t
  | At of location

type pred =
  | True
  | False
  | Test of field * value
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type police = { meter_id : int; rate_kbps : int; burst_kb : int }

type t =
  | Filter of pred
  | Mod of field * value
  | Union of t * t
  | Seq of t * t
  | Orelse of t * t
  | Police of police
  | Balance of (field * value) list list
      (** non-empty bucket list; the flow hash of the packet (after upstream
          modifications) selects one bucket whose modifications are applied *)

(** {1 Field and value orders} *)

val field_name : field -> string
val compare_field : field -> field -> int
val equal_value : value -> value -> bool
val compare_key : field * value -> field * value -> int

val pp_value : Format.formatter -> value -> unit

val pp_mods : Format.formatter -> (field * value) list -> unit
(** Comma-separated [field:=value] list. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Well-formedness}

    Tests must pair a field with a value of its kind ([Eth_src] with [Mac],
    [Ip_dst] with [Ip], [Loc] with [At], the rest with [Int]); [Eth_type],
    [Vlan_vid] and [Ip_proto] are read-only (no [Mod]); [Mod Loc] accepts
    any location while [Test Loc] only a [Phys] port; [Balance] buckets
    hold modifications only, and no [pass]. *)

val check : t -> unit
(** Structural well-formedness of a whole policy.
    @raise Invalid_argument with a description of the first offence. *)

(** {1 Constructors} *)

val id : t
(** [Filter True]: pass the packet through unchanged. *)

val drop : t
(** [Filter False]: the empty output set. *)

val filter : pred -> t
val test : field -> value -> pred
val conj : pred list -> pred
val disj : pred list -> pred
val neg : pred -> pred

val in_port : int -> pred
val eth_dst_is : Netpkt.Mac_addr.t -> pred
val eth_type_is : int -> pred
val ip_proto_is : int -> pred
val ip_src_is : Netpkt.Ipv4_addr.t -> pred
val ip_dst_is : Netpkt.Ipv4_addr.t -> pred
val l4_dst_is : int -> pred

val fwd : int -> t
(** Forward out of a physical port. *)

val flood : t
val to_controller : ?bytes:int -> unit -> t
val discard : t

val pass : t
(** [loc := pass]: leave the packet to whatever sits below this table. *)

val set_eth_src : Netpkt.Mac_addr.t -> t
val set_ip_src : Netpkt.Ipv4_addr.t -> t

val union : t -> t -> t
val seq : t -> t -> t
val orelse : t -> t -> t
val unions : t list -> t
(** [unions []] is [drop]. *)

val seqs : t list -> t
(** [seqs []] is [id]. *)

val orelses : t list -> t
(** Right-associated fallback chain; [orelses []] is [drop]. *)

val police : meter_id:int -> rate_kbps:int -> burst_kb:int -> t
val balance : (field * value) list list -> t
