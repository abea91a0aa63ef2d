(** The software OpenFlow switch: a {!Simnet.Node.t} whose forwarding is
    an OpenFlow pipeline executed by a pluggable {!Dataplane} under a
    {!Pmd} CPU model, plus the switch-side OpenFlow agent (flow-mods,
    packet-in/out, stats, barriers).

    HARMLESS instantiates two of these per deployment: SS_1 (the VLAN ↔
    patch-port translator) and SS_2 (the main OF switch the controller
    programs). *)

type dataplane_kind =
  | Linear
  | Ovs of Ovs_like.config
  | Eswitch
  | Hardware
      (** An idealized ASIC dataplane for modelling COTS OpenFlow
          hardware: pipeline semantics, near-zero per-packet cycles, but
          typically paired with a small [max_flow_entries]. *)

type miss_behavior = Drop_on_miss | Send_to_controller

type connection_mode =
  | Fail_secure
      (** Connection interruption: keep installed flows (idle/hard
          timeouts still expire them) but drop packets that would punt to
          the controller, counted under [Simnet.Node.Drop_fail_secure]. *)
  | Fail_standalone
      (** Connection interruption: table misses fall back to local L2
          learning so intra-switch traffic keeps flowing.  The learned
          table is forgotten when the controller reconnects. *)

type t

val create :
  Simnet.Engine.t ->
  name:string ->
  ports:int ->
  ?dataplane:dataplane_kind ->
  ?pmd:Pmd.config ->
  ?num_tables:int ->
  ?max_flow_entries:int ->
  ?miss:miss_behavior ->
  unit ->
  t
(** Defaults: [Eswitch] dataplane, default PMD, 4 tables, 100k entries per
    table, misses go to the controller. *)

val node : t -> Simnet.Node.t
val name : t -> string
val pipeline : t -> Openflow.Pipeline.t
val datapath_id : t -> int64
val dataplane_name : t -> string

val set_controller : t -> (Openflow.Of_message.t -> unit) -> unit
(** Where the agent sends its messages (packet-ins, replies). *)

val observe_messages_to_controller :
  t -> (Openflow.Of_message.t -> unit) -> unit
(** Register a read-only tap on every message the switch sends towards its
    controller, in addition to (and before) the [set_controller] callback.
    Used by the transparency oracle to assert that no packet-in ever
    carries a VLAN header.  Observers persist across [set_controller]
    calls. *)

val set_connection_mode : t -> connection_mode -> unit
(** What to do with would-be packet-ins while disconnected.  Default
    [Fail_secure], per the OpenFlow spec. *)

val connection_mode : t -> connection_mode

val set_connected : t -> bool -> unit
(** Flip the switch's view of the control channel.  While [false], the
    agent stops emitting packet-ins; misses obey the
    {!connection_mode}.  Flipping back to [true] clears the standalone
    learning table (the controller owns forwarding again). *)

val connected : t -> bool

val crash : t -> unit
(** Kill the switch process: all flow tables and learned state are wiped,
    every packet is dropped (counted under [Simnet.Node.Drop_crashed]) and
    the agent answers no OpenFlow messages until {!restart}. *)

val restart : t -> unit
(** Bring a crashed switch back up — empty tables, disconnected until the
    channel notices and resyncs. *)

val alive : t -> bool
val crashes : t -> int

val standalone_forwards : t -> int
(** Packets forwarded by local L2 learning while disconnected in
    [Fail_standalone]. *)

val handle_message : t -> Openflow.Of_message.t -> unit
(** Deliver a controller→switch message to the agent.  Errors (e.g. table
    full) come back as [Error] messages on the controller callback. *)

val set_flowrec : t -> Flowrec.t option -> unit
(** Attach (or detach, with [None]) a sampled flow recorder.  When
    attached, every packet on the receive path — both the PMD path and
    {!process_direct} — passes through {!Flowrec.observe} before the
    pipeline runs.  Detached, the hook is one field read and allocates
    nothing (pinned by the memory-telemetry tests). *)

val expire_flows : t -> unit
(** Remove idle/hard-timed-out entries now.  Also runs automatically every
    1024 processed packets. *)

val stats : t -> (string * int) list
(** Dataplane stats plus ["pmd_processed"], ["pmd_dropped"] (the node's
    [Drop_rx_ring] count), ["packet_ins"], ["flow_mods"]. *)

val publish_metrics :
  ?registry:Telemetry.Registry.t -> ?labels:Telemetry.Registry.labels ->
  t -> unit
(** Snapshot {!stats}, the node's non-zero drop reasons
    ({!Simnet.Node.drop_counters}), flow-table occupancy, PMD busy time
    and node rx/tx totals into gauges named [softswitch_*], labelled with
    the switch name and dataplane kind.  Pull-based. *)

val pmd : t -> Pmd.t

val process_direct :
  t -> now_ns:int -> in_port:int -> Netpkt.Packet.t -> Openflow.Pipeline.result * int
(** Run the dataplane synchronously without the engine or PMD — what the
    microbenchmarks call in a tight loop. *)
