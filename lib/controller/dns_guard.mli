(** DNS-aware blocking: Parental Control without a static site→address
    table.  The controller steers a copy of every DNS response to itself
    (the dataplane still delivers the original), learns name→address
    bindings from the answers, and the moment a {e blocked} name resolves
    it pins a drop rule for (user, resolved address) — before the user's
    browser has even opened the connection.

    Snooping and drops live in table 0, which continues with
    [Goto_table 1]; forwarding is expected in table 1 (use
    {!Rate_limiter.table1_l2} or similar).  [table1_l2]'s table 1 is
    total: it drops what it cannot forward, so a table-1 miss does not
    reach the controller.

    The snoop rule acts and then continues with [Goto_table 1], which
    the policy compiler does not express ([pass] is a miss, not
    act-then-continue), so the app builds its rules itself. *)

type t

val create : blocked:(Netpkt.Ipv4_addr.t * string) list -> unit -> t
(** [blocked] pairs a user address with a forbidden hostname.  The snoop
    rule sits at {!Policy.Compile.ceiling} and the drops one above, both
    over every compiled rule. *)

val app : t -> Controller.app

val bindings : t -> (string * Netpkt.Ipv4_addr.t) list
(** Every name→address binding snooped so far, oldest first. *)

val blocks_installed : t -> int
(** Drop rules pinned as a result of snooped resolutions. *)
