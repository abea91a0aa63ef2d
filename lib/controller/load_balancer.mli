(** Use case (a) of the paper: an in-network load balancer.  Ingress web
    traffic addressed to a virtual IP is spread over backends by flow
    hash (an OpenFlow [Select] group, so a flow's packets stick to one
    backend — the "matching of the source IP address" behaviour of the
    demo), with destination MAC/IP rewritten per backend; return traffic
    is rewritten back to the VIP and sent to the ingress port. *)

type backend = {
  backend_mac : Netpkt.Mac_addr.t;
  backend_ip : Netpkt.Ipv4_addr.t;
  backend_port : int;  (** switch port the backend is reached through *)
}

val create :
  vip_ip:Netpkt.Ipv4_addr.t ->
  vip_mac:Netpkt.Mac_addr.t ->
  ingress_port:int ->
  backends:backend list ->
  Controller.app
(** {!fragment}, compiled into table 0 once, here, and pushed on every
    switch-up: the select group, then the table.
    @raise Invalid_argument on an empty backend list. *)

val fragment :
  vip_ip:Netpkt.Ipv4_addr.t ->
  vip_mac:Netpkt.Mac_addr.t ->
  ingress_port:int ->
  backends:backend list ->
  ?vip_in_ports:int list ->
  unit ->
  Policy.Syntax.t
(** The policy: VIP traffic hash-balanced over the backends ([Balance],
    compiled to a [Select] group), with return-traffic rewrites as the
    fallback branch and ARP flooding on the app's ports.
    [vip_in_ports] scopes the VIP branch to those ingress ports — the
    return branch is already port-scoped by construction.
    @raise Invalid_argument on an empty backend list. *)
