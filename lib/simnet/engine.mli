(** The discrete-event simulation loop.

    An engine owns the clock and the pending-event queue.  Everything in a
    simulation (links, switches, hosts, traffic sources, the controller
    channel) schedules events on the same engine, so a whole deployment
    advances as one deterministic event sequence.

    An event is either a thunk ({!schedule_at} and friends: timers, the
    controller channel, traffic sources, PMD completions) or a delivery
    ({!deliver_at}: a frame handed to a {!sink} on a port), which the
    per-packet hops use.  Events run in (instant, scheduling order) order,
    whatever their kind.

    Thunks wait in a binary heap.  Each sink has its own FIFO lane of
    deliveries, and a delivery at or after the newest instant already in
    its lane is appended there; only the lanes' heads are kept in order,
    in a small heap of ints.  A delivery earlier than its lane's newest
    one (link jitter) waits in the thunk heap instead, as a closure.
    Dispatch merges the two heaps by (instant, scheduling order), so the
    order does not depend on which queue holds an event.  Scheduling and
    running an in-order delivery allocate nothing once the sink's lane
    has grown to its depth. *)

type t

val create : unit -> t
val now : t -> Sim_time.t

val schedule_at : t -> Sim_time.t -> (unit -> unit) -> unit
(** @raise Invalid_argument if the instant is in the past. *)

val schedule_after : t -> Sim_time.span -> (unit -> unit) -> unit
(** @raise Invalid_argument if the span is negative. *)

val schedule_every : t -> ?start:Sim_time.span -> Sim_time.span -> (unit -> bool) -> unit
(** [schedule_every t period f] runs [f] every [period] (first firing
    after [start], default [period]) until [f] returns [false].  The
    callback may reschedule itself at a different cadence by returning
    [false] and calling {!schedule_after} — that is how adaptive pollers
    are built on top of this.
    @raise Invalid_argument if [period <= 0] or [start < 0]. *)

type sink
(** A receiver of deliveries, with its own lane. *)

val sink : t -> (int -> Netpkt.Packet.t -> unit) -> sink
(** [sink t f] is a sink that runs [f port pkt] for each delivery.  Build
    one per link direction or device, not per frame: an engine keeps
    every sink it made. *)

val deliver_at : t -> Sim_time.t -> sink -> int -> Netpkt.Packet.t -> unit
(** [deliver_at t time sink port pkt] runs the sink's function on [port]
    and [pkt] at [time].
    @raise Invalid_argument if the instant is in the past or [sink] was
    made by another engine. *)

val step : t -> bool
(** Run the earliest pending event.  [false] if none was pending. *)

val run : ?until:Sim_time.t -> ?max_events:int -> t -> unit
(** Run events in order until the queue drains, the clock would pass
    [until], or [max_events] have executed.  When stopped by [until], the
    clock is advanced to exactly [until]. *)

val pending : t -> int
(** Number of queued events, thunks and deliveries; O(1). *)

val events_executed : t -> int
(** Total events executed since creation. *)

val enable_telemetry : ?sample_every:int -> ?capacity:int -> t -> unit
(** Turn on scheduler self-observation: every [sample_every]-th (default
    1) dispatch records the queue depth after the pop and the scheduling
    lag — how far the clock jumps to reach the event, i.e. how idle the
    simulated system was — into two ring-buffer time series (default
    [capacity] 4096 points) timestamped with the event's own instant.
    Calling it again replaces the series.
    @raise Invalid_argument if [sample_every <= 0]. *)

val queue_depth_series : t -> Telemetry.Timeseries.t option
(** The sampled queue-depth series; [None] until {!enable_telemetry}. *)

val scheduling_lag_series : t -> Telemetry.Timeseries.t option
(** The sampled scheduling-lag series (ns per jump); [None] until
    {!enable_telemetry}. *)

val publish_metrics :
  ?registry:Telemetry.Registry.t -> ?labels:Telemetry.Registry.labels ->
  t -> unit
(** Snapshot the engine's state ([sim_now_ns], [sim_events_executed],
    [sim_events_pending] — plus, once {!enable_telemetry} is on and has
    sampled, [sim_queue_depth_sampled] and [sim_sched_lag_ns]) into
    gauges.  Pull-based: call it when a metrics export is wanted;
    nothing is recorded otherwise. *)
