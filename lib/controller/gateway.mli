(** The composed residential-gateway scenario: all four SS_2 apps sharing
    one switch.

    Port map (with {!default}): 0–3 subscribers, 4–6 DMZ VMs, 7 the load
    balancer's ingress trunk, 8–9 its backends.  {!policy} composes the
    apps' fragments into one policy term whose compiled form fits one
    table — the composition the equivalence harness checks and the
    table-size experiment measures. *)

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

val policy : t -> Policy.Syntax.t
(** The whole gateway as one policy term: the forwarding bands chained by
    [orelse] in precedence order, with parental drops as a negated guard,
    under the metering stage of {!Rate_limiter.policy} (whose [discard]
    fallback makes dropped traffic still meter). *)

(** Value pools for the equivalence fuzzer — every address the scenario
    knows plus strangers, so collisions are the common case. *)

val macs : t -> Netpkt.Mac_addr.t list
val ips : t -> Netpkt.Ipv4_addr.t list
val l4_ports : t -> int list
