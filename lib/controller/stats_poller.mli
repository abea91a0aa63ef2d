(** Periodic OpenFlow statistics collection — the acquisition layer of
    the monitoring plane.

    A poller owns one datapath: every period it issues a
    flow-stats request, a port-stats request, and a tagged echo probe
    over the control channel, and feeds the replies into
    {!Telemetry.Timeseries} ring buffers (cumulative per-flow
    byte/packet counters, cumulative per-port byte counters, and the
    control-channel round-trip time as a gauge).  Everything downstream
    — the traffic {!Monitor} matrix, the [harmlessctl top] dashboard,
    SLO alert rules — reads these series
    instead of keeping its own books.

    When the channel is disconnected, or a round completes without any
    flow-stats reply arriving, the poller backs off: the next round is
    delayed by {!Mgmt.Retry.delay_before_attempt} of its retry policy
    (never below the base period), growing with each consecutive
    failure and snapping back to the base period on the first reply.
    Polling a dead channel at full rate would only add to the storm the
    reconnect logic is already fighting. *)

type t

val create :
  ?period:Simnet.Sim_time.span ->
  ?retry:Mgmt.Retry.policy ->
  ?capacity:int ->
  Controller.t ->
  int64 ->
  t
(** A poller for one datapath.  [period] is the healthy poll interval
    (default 10 ms); [retry] shapes the outage backoff (default
    {!Mgmt.Retry.default}); [capacity] bounds every series this poller
    creates (default 1024 points).
    @raise Invalid_argument if [period <= 0]. *)

val dpid : t -> int64

val start : t -> unit
(** Begin periodic polling (first round after one period).  Idempotent. *)

val stop : t -> unit
(** Cease scheduling further rounds.  In-flight replies still land. *)

val poll_now : t -> unit
(** Issue one round of requests immediately, outside the periodic
    schedule — what {!Monitor.poll} calls. *)

val rounds_issued : t -> int
(** Poll rounds whose requests were actually sent. *)

val flow_replies : t -> int
val port_replies : t -> int
val rtt_replies : t -> int

val consecutive_failures : t -> int
(** Failed rounds since the last successful one — drives the backoff. *)

val current_delay : t -> Simnet.Sim_time.span
(** The delay the next round will be scheduled after: the base period
    when healthy, the retry policy's backoff when failing.  Only tests
    read it; it stays as the one read-out of the backoff. *)

val latest_flows : t -> Openflow.Of_message.flow_stat list
(** The most recent flow-stats reply's entries (order preserved);
    [[]] before the first reply. *)

val latest_ports : t -> Openflow.Of_message.port_stat list

(** {2 Recorded series}

    Only tests read the next four; they stay because they are how a
    test sees that every polled flow and port got its own series
    ({!port_rate} and {!top_flows} only summarize them). *)

val flow_keys : t -> string list
(** Stable identifiers ("t<table> p<prio> <match>") of every flow this
    poller has ever seen, sorted. *)

val flow_bytes_series : t -> string -> Telemetry.Timeseries.t option
val flow_packets_series : t -> string -> Telemetry.Timeseries.t option

val port_rx_series : t -> int -> Telemetry.Timeseries.t option
(** Cumulative received wire bytes for a port, one point per reply. *)

val rtt_series : t -> Telemetry.Timeseries.t
(** Control-channel hairpin RTT in nanoseconds (gauge). *)

val port_rate :
  t -> port:int -> now_ns:int -> window:int -> (float * float) option
(** [(rx_bytes_per_s, tx_bytes_per_s)] over the window — [None] until
    both directions hold two points inside it. *)

val top_flows :
  t -> n:int -> now_ns:int -> window:int -> (string * float) list
(** The [n] flows with the highest byte rate (bytes/s) over the window,
    highest first; flows without a computable rate are ranked by [0.].
    Ties break on the flow key so the ranking is deterministic. *)
