(** Use case (c) of the paper: per-user web-page blocking, changeable
    on-the-fly.

    Two enforcement paths:
    - {b proactive}: when the blocked site's address is known (it appears
      in [sites]), a drop rule for (user, site, TCP/80) is installed;
    - {b reactive}: otherwise the user's HTTP traffic is steered to the
      controller, which sniffs the [Host] header of each GET; blocked
      requests are dropped (and an exact drop rule installed), allowed
      ones are forwarded on.

    {!block} and {!unblock} update a running deployment — the "deny access
    on-the-fly" part of the demo. *)

type t
(** The app's mutable control handle. *)

val create :
  ?sites:(string * Netpkt.Ipv4_addr.t) list ->
  blocked:(Netpkt.Ipv4_addr.t * string) list ->
  ?priority:int ->
  unit ->
  t
(** [sites] maps hostnames to server addresses (the controller's "DNS").
    [blocked] is the initial (user-IP, hostname) deny list.  Default
    priority 2200. *)

val app : t -> Controller.app

val messages : t -> Openflow.Of_message.t list
(** The proactive rule set {!app} installs in table 0 on switch-up (per
    user in address order: resolvable drops in [blocked] order, then the
    sniff rule if any host is unresolvable), as a pure value.  These rules
    stay hand-written: {!app} installs and deletes them per event, and a
    miss in their table reaches the next app (E8 pairs this one with
    {!L2_learning}).  A compiled table is total, so it would end those
    packet-ins. *)

val blocked_pred : t -> Policy.Syntax.pred
(** Matches exactly the traffic the proactive drop rules kill. *)

val sniff_pred : t -> Policy.Syntax.pred
(** Matches the HTTP traffic of users needing controller sniffing. *)

val fragment : t -> Policy.Syntax.t
(** Dataplane behaviour as a policy fragment:
    [filter (not blocked && sniff); to_controller].  Proactive drops are
    absence in the algebra; the reactive packet-in logic stays in {!app}
    and is shared by both implementations. *)

val block : t -> Controller.t -> user:Netpkt.Ipv4_addr.t -> host:string -> unit
(** Add a deny entry and install it on every connected switch. *)

val unblock : t -> Controller.t -> user:Netpkt.Ipv4_addr.t -> host:string -> unit
(** Remove the entry and the switch rules enforcing it. *)

val blocked_list : t -> (Netpkt.Ipv4_addr.t * string) list
val sniffed_drops : t -> int
(** Requests dropped via the reactive (Host-sniffing) path. *)
