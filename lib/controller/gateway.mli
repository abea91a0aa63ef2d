(** The composed residential-gateway scenario: all four SS_2 apps sharing
    one switch, in both implementations.

    Port map (with {!default}): 0–3 subscribers, 4–5 DMZ VMs, 6 the load
    balancer's ingress trunk, 7–8 its backends.  The hand-written build
    uses two tables — rate-limit meters in table 0 ([Goto_table 1]), all
    forwarding and filtering bands in table 1.  {!policy} expresses the
    same behaviour as one policy term whose compiled form fits one table —
    the composition the equivalence harness proves and the table-size
    experiment measures. *)

type subscriber = {
  sub_ip : Netpkt.Ipv4_addr.t;
  sub_mac : Netpkt.Mac_addr.t;
  sub_port : int;
}

type t = {
  subscribers : subscriber list;
  dmz : Dmz.policy;
  dmz_ports : int list;  (** ingress scope of the DMZ slice *)
  vip_ip : Netpkt.Ipv4_addr.t;
  vip_mac : Netpkt.Mac_addr.t;
  lb_ingress : int;
  lb_backends : Load_balancer.backend list;
  parental : Parental_control.t;
  limits : Rate_limiter.limit list;
  num_ports : int;
}

val default : unit -> t
(** A fresh instance of the canonical scenario (4 subscribers, 2 DMZ VMs
    with one allowed pair, VIP with 2 backends, one resolvable and one
    sniffed parental block, 2 rate limits).  Fresh because the parental
    handle is mutable. *)

val handwritten_tables : int
(** Tables the hand-written composition needs (2). *)

val handwritten_messages : t -> Openflow.Of_message.t list
(** Every app's {e messages} concatenated in registration order —
    rate limiter (table 0), parental control, DMZ (scoped to
    [dmz_ports]), load balancer (VIP scoped to [lb_ingress]), subscriber
    L2 + ARP flood (table 1). *)

val policy : t -> Policy.Syntax.t
(** The whole gateway as one policy term: the metering stage sequenced
    into the table-1 bands chained by [orelse] in priority order, with
    parental drops as a negated guard and an explicit [discard] fallback
    so dropped traffic still meters. *)

(** Value pools for the equivalence fuzzer — every address the scenario
    knows plus strangers, so collisions are the common case. *)

val macs : t -> Netpkt.Mac_addr.t list
val ips : t -> Netpkt.Ipv4_addr.t list
val l4_ports : t -> int list
