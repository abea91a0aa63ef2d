(** The operator dashboard behind [harmlessctl top] and
    [harmlessctl alerts]: a canned deterministic HARMLESS deployment
    with a {!Sdnctl.Stats_poller} collecting OpenFlow statistics and an
    {!Telemetry.Alert} engine watching them, plus pure renderers that
    turn the collected series into text frames.

    The renderers live here rather than in the CLI so the frames are
    testable: the same demo advanced the same sim-time span renders
    byte-identical output. *)

type t

val demo :
  ?num_hosts:int ->
  ?poll_period:Simnet.Sim_time.span ->
  unit ->
  (t, string) result
(** A 4-host (default) HARMLESS deployment with an L2-learning
    controller, a stats poller on the OpenFlow switch (default period
    10 ms) and four alert rules: ["control-channel-up"] (channel
    observed disconnected), ["stats-freshness"] (no RTT sample for
    50 ms), ["dataplane-active"] (aggregate polled port receive rate
    above 1 B/s — firing means traffic is flowing) and
    ["gc-alloc-rate"] (allocation-rate watch with a deliberately
    unreachable demo threshold, so the frame goldens stay
    deterministic).  A {!Sdnctl.Flow_collector} samples the OpenFlow
    switch 1-in-8 and merges on the poll period, contributing the
    ["elephant-flow"] and ["host-cardinality"] rules (also with
    unreachable demo thresholds).  The engine's
    queue-depth/scheduling-lag telemetry is on (every 16th event).
    The control-plane handshake has already settled; no traffic has
    been sent yet. *)

val advance : t -> Simnet.Sim_time.span -> unit
(** Run the deployment for a span of sim time: probe pings cycle
    through every ordered host pair each millisecond, the poller polls,
    and the alert rules are evaluated every 2 ms. *)

val engine : t -> Simnet.Engine.t
val poller : t -> Sdnctl.Stats_poller.t
val alerts : t -> Telemetry.Alert.t

val now_ns : t -> int

val render_top : ?top_n:int -> ?window:Simnet.Sim_time.span -> t -> string
(** One [top] frame: header (sim time, datapath, channel state, poll
    and reply counts, last control RTT), per-port rx/tx rate bars over
    [window] (default 30 ms, bars scaled to the busiest port), the
    [top_n] (default 5) flows by byte rate, a GC panel line (live
    runtime numbers — the one nondeterministic line in the frame), an
    engine line (events executed, sampled queue depth and scheduling
    lag), and the alert summary. *)

val flow_collector : t -> Sdnctl.Flow_collector.t
(** The demo's sampled-flow roll-up (fed by the probe pings). *)

val render_flows : ?top_n:int -> t -> string
(** The heavy-hitters panel: switch/sample/merge counts, the merged
    top-[top_n] (default 10) flows by estimated bytes with per-entry
    error bounds, and the estimated source-host cardinality.
    [harmlessctl flows] prints exactly this frame. *)

val render_alerts : t -> string
(** The alert engine in full: every rule with its state, then the
    complete transition log, oldest first. *)

val render_stages : t -> string
(** Per-stage latency SLIs: the {!Telemetry.Profile} attribution table
    folded from every packet traced during {!advance} — where the probe
    traffic's end-to-end time goes, stage by stage.  [advance] runs
    under a trace recorder, so this works out of the box; before any
    [advance] the frame says so instead of rendering an empty table. *)

val render_migration : ?wal:Mgmt.Txn.t -> Migration.Fleet.t -> string
(** The migration panel: per-switch stage, rollbacks_total, breaker
    state and fleet progress ({!Migration.Fleet.render}), followed —
    when [wal] is given — by the write-ahead log summary with each
    transaction's replay resolution.  [harmlessctl migrate] prints
    exactly this frame. *)
