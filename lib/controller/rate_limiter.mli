(** A bandwidth-policing application — one more "standalone hardware
    appliance" (a traffic policer) the paper's demo argues HARMLESS can
    absorb into the network.

    Each policy entry caps one source host's IP traffic with an OpenFlow
    meter.  The metering stage is a pass-through {!fragment}; {!create}
    sequences it before a forwarding policy and compiles the two into
    one table, where each subject's rules carry a [Meter] instruction
    ahead of their actions. *)

type limit = {
  subject : Netpkt.Ipv4_addr.t;  (** source host to police *)
  rate_kbps : int;
  burst_kb : int;
}

val create : limits:limit list -> Policy.Syntax.t -> Controller.app
(** [create ~limits forward] compiles [policy ~limits forward] into
    table 0 once, here, and pushes it on every switch-up: the meters,
    then the table.
    @raise Invalid_argument as {!fragment} does, or if the composition
    does not compile. *)

val policy : limits:limit list -> Policy.Syntax.t -> Policy.Syntax.t
(** [policy ~limits forward] is
    [seq (fragment ~limits ()) (orelse forward discard)]: the metering
    stage sequenced before [forward], the term {!create} installs.
    Metered traffic that [forward] drops still bills its meter.
    @raise Invalid_argument as {!fragment} does. *)

val fragment : limits:limit list -> unit -> Policy.Syntax.t
(** The metering stage as a pass-through policy fragment: each subject's
    IP traffic goes through [Police] with meter id [index + 1]; everything
    else passes unmetered.  Sequence it before a forwarding fragment.
    @raise Invalid_argument naming the address if two limits share a
    subject (a packet would be metered twice). *)

val table1_l2 : num_hosts:int -> Controller.app
(** A proactive destination-MAC forwarding app for {e table 1}, matching
    the {!Harmless.Deployment} host conventions: {!table1_fragment}
    compiled into table 1 — the forwarding layer under a table-0 app
    that continues with [Goto_table 1], such as {!Dns_guard}.  The
    compiled table is total: it ends in a priority-0 drop, so a packet
    it cannot forward (an unknown destination MAC, say) is dropped
    rather than sent to the controller, and an app registered after
    this one sees no packet-in for it. *)

val table1_fragment : num_hosts:int -> unit -> Policy.Syntax.t
(** {!table1_l2}'s behaviour as a fragment: MAC forwards with an ARP-flood
    fallback. *)
