(** Use case (c) of the paper: per-user web-page blocking, changeable
    on-the-fly.

    The app's proactive rules are the compile of {!fragment}, and
    nothing else:
    - a user's HTTP to a blocked site whose address is known (it appears
      in [sites]) is discarded;
    - otherwise the HTTP of a user with a blocked host of unknown address
      goes to the controller, which sniffs the [Host] header of each GET.
      A blocked request dies there and its (user, server) pair gets an
      exact drop at {!Policy.Compile.ceiling}, above every compiled rule.
      An allowed one is handed on to the next app;
    - everything else is [pass]: the table misses, and the next app sees
      the packet-in (E8 pairs this one with {!L2_learning}).

    {!block} and {!unblock} update a running deployment — the "deny access
    on-the-fly" part of the demo — by recompiling and sending every
    connected switch the difference ({!Policy.Compile.diff}). *)

type t
(** The app's mutable control handle. *)

val create :
  ?sites:(string * Netpkt.Ipv4_addr.t) list ->
  blocked:(Netpkt.Ipv4_addr.t * string) list ->
  unit ->
  t
(** [sites] maps hostnames to server addresses (the controller's "DNS").
    [blocked] is the initial (user-IP, hostname) deny list. *)

val app : t -> Controller.app
(** Installs the compile of {!fragment} on switch-up; sniffs packet-ins. *)

val blocked_pred : t -> Policy.Syntax.pred
(** The HTTP of each user to each blocked site of known address. *)

val sniff_pred : t -> Policy.Syntax.pred
(** The HTTP of the users with a blocked host of unknown address. *)

val fragment : t -> Policy.Syntax.t
(** The installed policy, for the current deny list: {!blocked_pred} to
    [discard], else {!sniff_pred} to the controller, else [pass]. *)

val block : t -> Controller.t -> user:Netpkt.Ipv4_addr.t -> host:string -> unit
(** Add a deny entry and move every connected switch to the new compile. *)

val unblock : t -> Controller.t -> user:Netpkt.Ipv4_addr.t -> host:string -> unit
(** Remove the entry and move every connected switch to the new compile.
    Drops pinned by sniffing stay. *)
