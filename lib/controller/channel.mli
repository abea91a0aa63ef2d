(** The control channel between a switch agent and the controller,
    modelling the management-network TCP connection — now as a fallible
    connection rather than a perfect pipe.

    Both directions are delivered asynchronously after a configurable
    latency.  The channel can lose messages (random loss, or a total
    blackhole via {!set_down}), bounds the number of controller→switch
    messages in flight, and — when a keepalive interval is configured —
    probes the switch with OpenFlow echo requests, declares the
    connection dead after {!field-config.echo_timeout} of silence, and
    then re-establishes it with exponential backoff.  While disconnected
    the switch is told via {!Softswitch.Soft_switch.set_connected}, so
    its fail-secure / fail-standalone mode governs the dataplane.

    Telemetry: reconnections increment [reconnects_total{switch=...}]
    and every lost control message increments
    [channel_dropped_messages_total{switch=...,direction=...}] on the
    default registry. *)

type config = {
  latency : Simnet.Sim_time.span;  (** one-way delivery delay *)
  loss : float;  (** per-message loss probability in [0, 1) *)
  seed : int;  (** RNG seed for loss draws *)
  keepalive_interval : Simnet.Sim_time.span option;
      (** echo-request period; [None] (the default) disables keepalive —
          note an enabled keepalive reschedules itself forever, so run
          the engine with [~until]. *)
  echo_timeout : Simnet.Sim_time.span;
      (** silence longer than this (checked at each keepalive tick)
          declares the connection dead *)
  reconnect_base : Simnet.Sim_time.span;  (** first reconnect delay *)
  reconnect_max : Simnet.Sim_time.span;  (** backoff cap *)
  max_in_flight : int;
      (** bound on queued controller→switch messages; excess is shed and
          counted in {!queue_drops} *)
}

val default_config : config
(** 200 us latency, no loss, no keepalive, 20 ms echo timeout,
    10 ms→500 ms backoff, 512 in flight. *)

type state = Connected | Disconnected

type t

val connect :
  Simnet.Engine.t ->
  ?latency:Simnet.Sim_time.span ->
  ?config:config ->
  switch:Softswitch.Soft_switch.t ->
  to_controller:(Openflow.Of_message.t -> unit) ->
  unit ->
  t
(** Wire the switch's controller callback to [to_controller] and return
    a handle for the reverse direction.  [?latency] overrides the
    config's latency (kept for compatibility with the old signature).
    @raise Invalid_argument on a malformed config. *)

val to_switch : t -> Openflow.Of_message.t -> unit
(** Deliver a controller→switch message after the channel latency —
    unless the channel is disconnected, the bounded queue is full, or
    the loss process eats it; all three are counted. *)

val state : t -> state

val set_down : t -> bool -> unit
(** Blackhole the channel (both directions) — the fault injector's view
    of a management-network outage or controller crash.  With keepalive
    enabled the outage is {e detected} by echo timeout and healed by the
    backoff probe; with keepalive off the state flips synchronously so
    fail modes still engage. *)

val on_reconnect : t -> (unit -> unit) -> unit
(** Called (in registration order) each time the channel re-establishes —
    where the controller hooks flow resynchronization. *)

val reconnects : t -> int
val queue_drops : t -> int
val dropped_to_switch : t -> int
val dropped_to_controller : t -> int
