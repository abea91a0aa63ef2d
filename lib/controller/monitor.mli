(** Passive network monitoring from flow statistics — the visibility
    story of SDN: the controller polls flow counters and derives a
    source→destination traffic matrix, no mirror ports or probe
    appliances required.

    The app piggybacks on whatever forwarding rules exist: it installs
    its own zero-effect accounting rules (high-priority per-(src,dst)
    pair matches whose action continues to the forwarding table via
    [Goto_table]), then polls their counters.

    Counter acquisition is delegated to one {!Stats_poller} per
    datapath — the monitor keeps no accounting of its own; {!matrix} is
    a view over the pollers' latest flow-stats replies, so the same
    polled numbers feed this matrix, the [harmlessctl top] dashboard
    and any alert rules.

    No deployment path uses the monitor; only tests do.  It stays because
    it installs the accounting rules of the flow-record agreement test,
    and its [Goto_table] rules are outside what the policy compiler
    expresses ([pass] is a miss, not act-then-continue). *)

type t

val create : pairs:(Netpkt.Ipv4_addr.t * Netpkt.Ipv4_addr.t) list -> unit -> t
(** Track the given ordered (src, dst) pairs.  Accounting rules go in
    table 0, at [Policy.Compile.ceiling + 2] (over every compiled or
    pinned rule), and hand off to table 1, so combine with a forwarding
    app that populates table 1 (e.g. {!Rate_limiter.table1_l2}). *)

val app : t -> Controller.app

val poll : t -> Controller.t -> unit
(** Issue a flow-stats request; the matrix updates when the reply
    arrives (run the engine). *)

val start_polling : t -> Controller.t -> Simnet.Engine.t -> period:Simnet.Sim_time.span -> rounds:int -> unit
(** Schedule [rounds] polls, [period] apart. *)

val matrix : t -> ((Netpkt.Ipv4_addr.t * Netpkt.Ipv4_addr.t) * (int * int)) list
(** Latest (packets, bytes) per tracked pair, in the order given. *)

val polls_completed : t -> int
(** Flow-stats replies landed across all of the monitor's pollers. *)

val poller : t -> int64 -> Stats_poller.t option
(** The per-datapath poller backing the matrix (created lazily at the
    first {!poll}) — exposes the underlying time series. *)
