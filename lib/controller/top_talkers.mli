(** Top-talkers from the monitoring plane's exact counters: the
    attached {!Stats_poller}s' flow stats folded into a per-source byte
    ranking.  The sampled view of the same question is the flow
    telemetry plane ({!Softswitch.Flowrec} feeding {!Flow_collector}),
    whose top-k ranking agrees with this one on exact workloads. *)

type t

val create : unit -> t

val attach_poller : t -> Stats_poller.t -> unit
(** Source counters from this {!Stats_poller}. *)

val byte_ranking : t -> (Netpkt.Ipv4_addr.t * int) list
(** Sources by cumulative bytes, descending, from the attached pollers'
    latest flow stats: every flow matching a /32 [ip_src] attributes its
    byte counter to that source.  Ties break on address order; empty
    until a poller is attached and has a reply. *)
