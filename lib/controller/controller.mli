(** The SDN controller: owns control channels to any number of switches
    and dispatches events to registered applications.

    Applications are chained: a packet-in is offered to each app in
    registration order until one returns [true] (consumed).  Apps install
    state through the controller's send/install API, never by touching
    switches directly, so everything they do crosses the (latency-bearing)
    control channel — exactly the constraint a real controller works
    under. *)

type t

(** What an application can do and see. *)
type app = {
  app_name : string;
  switch_up : t -> int64 -> unit;
      (** called once the switch's features reply arrives *)
  packet_in :
    t -> int64 -> in_port:int -> Openflow.Of_message.packet_in_reason ->
    Netpkt.Packet.t -> bool;
      (** [true] = consumed, stop the chain *)
  port_status : t -> int64 -> port:int -> up:bool -> unit;
      (** a switch port's carrier changed (all apps see every event) *)
}

val no_op_app : string -> app
(** An app that handles nothing — a base to extend with [{ ... with }]. *)

val create :
  Simnet.Engine.t ->
  ?channel_latency:Simnet.Sim_time.span ->
  ?channel_config:Channel.config ->
  unit ->
  t
(** [channel_config] shapes every channel this controller opens (loss,
    keepalive, backoff — see {!Channel.config}); [channel_latency]
    overrides just the latency. *)

val add_app : t -> app -> unit
(** Apps see switches that connect after registration; register apps
    first. *)

val attach_switch : t -> Softswitch.Soft_switch.t -> int64
(** Connect a switch: opens a channel, performs the hello /
    features-request handshake (asynchronously) and returns the datapath
    id.  [switch_up] callbacks fire when the handshake completes — run the
    engine. *)

val send : t -> int64 -> Openflow.Of_message.t -> unit
(** @raise Not_found for an unknown datapath. *)

val install : t -> int64 -> Openflow.Of_message.flow_mod -> unit
(** Count and send one flow-mod. *)

val send_all : t -> int64 -> Openflow.Of_message.t list -> unit
(** Send a message sequence in order, counting flow-mods as {!install}
    does — the push path apps use to install a precomputed rule set. *)

val policy_app : string -> Policy.Compile.t -> app
(** A proactive app that pushes a compiled policy's {!Policy.Compile.messages}
    (meters, groups, then its total flow table) on every switch-up.  The
    message list is built once, here; compile the policy when the app is
    created so an ill-formed one is rejected there. *)

val packet_out :
  t -> int64 -> ?in_port:int -> actions:Openflow.Of_action.t list ->
  Netpkt.Packet.t -> unit

val channel : t -> int64 -> Channel.t
(** The control channel to a datapath — how experiments and the fault
    injector reach {!Channel.set_down}.
    @raise Not_found for an unknown datapath. *)

val resyncs : t -> int
(** Times any channel reconnected and had its state replayed.  On each
    reconnect the controller resends the hello/features handshake and
    every flow/group/meter-mod it ever sent that switch, in order —
    idempotent for a switch that kept its tables, restorative for one
    that crashed and lost them. *)

val packet_ins_received : t -> int

val errors_received : t -> string list
(** Error messages from switches, oldest first.  Only tests read it; it
    stays as the one place a rejected flow-mod shows up. *)

val publish_metrics :
  ?registry:Telemetry.Registry.t -> ?labels:Telemetry.Registry.labels ->
  t -> unit
(** Snapshot controller tallies (packet-ins/outs, flow-mods sent,
    errors, attached switches, apps) into gauges named [controller_*].
    Pull-based. *)

val flow_stats :
  t -> int64 -> on_reply:(Openflow.Of_message.flow_stat list -> unit) -> unit
(** Issue a stats request; [on_reply] fires when the reply arrives. *)

val port_stats :
  t -> int64 -> on_reply:(Openflow.Of_message.port_stat list -> unit) -> unit
(** Issue a per-port counter request; [on_reply] fires on the reply. *)

val measure_rtt :
  t -> int64 -> on_reply:(Simnet.Sim_time.span -> unit) -> unit
(** Hairpin the control channel with an echo probe and report the
    round-trip time.  Probe payloads are tagged so they never collide
    with the channel's own keepalive echoes.  If the channel drops the
    probe or its reply, [on_reply] simply never fires. *)

val engine : t -> Simnet.Engine.t
(** The event engine this controller schedules on — pollers and other
    periodic machinery attach here. *)
