(** Use case (b) of the paper: DMZ-style VM-level access policies in a
    multi-tenant cloud.  The controller knows where each VM sits (IP,
    MAC, switch port) and an allow-list of VM pairs; everything is
    installed proactively:

    - each allowed (a, b) pair gets forward rules in both directions;
    - ARP floods (hosts must resolve each other);
    - everything else is dropped.  The compiled table ends in a
      priority-0 catch-all drop, so no packet misses it: the app owns
      its table and does not hand misses to an L2 base app. *)

type vm = {
  vm_ip : Netpkt.Ipv4_addr.t;
  vm_mac : Netpkt.Mac_addr.t;
  vm_port : int;
}

type policy = {
  vms : vm list;
  allowed : (Netpkt.Ipv4_addr.t * Netpkt.Ipv4_addr.t) list;
      (** unordered pairs; traffic is allowed both ways *)
}

val create : policy -> Controller.app
(** {!fragment}, compiled into table 0 once, here, and pushed on every
    switch-up.
    @raise Invalid_argument if an allowed pair names an unknown VM. *)

val fragment :
  policy -> ?in_ports:int list -> unit -> Policy.Syntax.t
(** The policy: a union of pair forwards plus the ARP flood.  The
    default-deny fence is implicit — unmatched packets produce the empty
    set.  [in_ports] scopes every branch to those ingress ports so the
    fragment can be composed with others on a shared switch.
    @raise Invalid_argument as {!create} does. *)

val allows : policy -> Netpkt.Ipv4_addr.t -> Netpkt.Ipv4_addr.t -> bool
(** Whether the policy permits traffic between two addresses (symmetric;
    used by tests as the ground truth). *)
