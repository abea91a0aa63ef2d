(** Multi-table OpenFlow pipeline execution.

    A pipeline owns a fixed array of flow tables and a group table.
    {!execute} walks a packet through the tables starting at table 0,
    honouring [Apply_actions] (immediate, in order), [Write_actions]/
    [Clear_actions] (deferred action set, run at pipeline end) and
    [Goto_table], and resolving [Group] actions through the group table.

    The pipeline is engine-agnostic; flooding is returned symbolically so
    the owning switch can expand it over its own port set. *)

(** Where a packet (in its state at emission time) leaves the pipeline. *)
type output =
  | Port of int * Netpkt.Packet.t
  | In_port of Netpkt.Packet.t
  | Flood of Netpkt.Packet.t            (** every port except the ingress *)
  | All_ports of Netpkt.Packet.t        (** every port including the ingress *)
  | Controller of int * Netpkt.Packet.t (** truncation length (0 = full) *)

type result = private {
  mutable outputs : output list;  (** in emission order *)
  mutable matched : Flow_entry.t list;  (** entries hit, per table, in order *)
  mutable table_miss : bool;  (** true iff the walk hit a table with no match *)
  mutable cycles : int;
      (** the pass's modelled CPU cycles, as the dataplane that ran it
          set them with {!set_cycles}; 0 until then *)
}
(** One pass's outcome.  The pass builds it up in place, so outside this
    module it is read-only. *)

val make_result :
  outputs:output list -> table_miss:bool -> matched:Flow_entry.t list -> result
(** A result built by another executor (the conformance oracle), at 0
    cycles. *)

val set_cycles : result -> int -> unit
(** Charge the pass's modelled cycles.  A dataplane calls this once,
    after the pass and before it hands the result on. *)

type t

val create : ?num_tables:int -> ?max_entries_per_table:int -> unit -> t
(** Default: 4 tables (0-3), matching small hardware pipelines, with the
    {!Flow_table} default capacity. *)

val num_tables : t -> int
val table : t -> int -> Flow_table.t
(** @raise Invalid_argument on a bad index. *)

val groups : t -> Group_table.t
val meters : t -> Meter_table.t

val flow_hash : Netpkt.Packet.Fields.t -> int
(** The hash [Select] groups use — a function of the 5-tuple only, so a
    flow's packets always pick the same bucket.  Its values predate the
    int-valued fields and are kept: it boxes the 5-tuple as options
    before hashing, so it allocates. *)

val execute : t -> now_ns:int -> in_port:int -> Netpkt.Packet.t -> result
(** Flow-entry counters of matched entries are updated.  This is
    {!execute_with} over {!Flow_table.lookup}, a lookup the pipeline
    builds once: a pass allocates the fields view (12 words), what
    {!execute_with} allocates, and the [Some] of each table hit (2) —
    28 words for one table, one output and no rewrite. *)

val execute_with :
  t ->
  lookup:(int -> in_port:int -> Netpkt.Packet.Fields.t -> Flow_entry.t option) ->
  now_ns:int ->
  in_port:int ->
  Netpkt.Packet.t ->
  Netpkt.Packet.Fields.t ->
  result
(** [execute_with t ~lookup ~now_ns ~in_port pkt fields] is like
    {!execute}, but table lookups go through [lookup] (first argument is
    the table id).  This is how alternative dataplanes — caches,
    specialized matchers — reuse the instruction-execution semantics while
    supplying their own classification.  [fields] must be
    [Netpkt.Packet.Fields.of_packet pkt]: the caller extracts the view
    once, so a dataplane that keys a cache on it does not pay for a
    second one.

    Beyond what [lookup] allocates, a pass allocates its one result
    block (5 words), a cons cell per matched entry (3), an output and
    its cons cell per emission (5 or 6) and the rewritten packets.  A
    table given a packet that a rewrite rebuilt gets a fresh view (12).
    Everything else the walk needs (the pipeline, [lookup], the clock,
    the ingress port and the deferred action set) travels as arguments,
    so there is no state record and no closure or ref.
    [Write_actions] conses one cell per kept rewrite; [Group] actions
    add their loop guard and flow hash. *)

val execute_actions : t -> Of_action.t list -> Netpkt.Packet.t -> output list
(** Run an explicit action list, as an [Apply_actions] instruction does:
    rewrites in order, outputs as they appear, [Group] actions through
    the group table.  No table is consulted, so no clock or ingress port
    is needed: [In_port] outputs stay symbolic.  This is a packet-out. *)

val apply : t -> now_ns:int -> Of_message.t -> (unit, string) Stdlib.result
(** Apply a controller's [Flow_mod], [Group_mod] or [Meter_mod]; other
    messages are [Ok ()] no-ops.  This is the one place a message
    mutates the tables.  Bad input leaves the pipeline unchanged and
    comes back as [Error] with the reason a switch sends the controller:
    ["flow-mod: bad table id"], ["flow-mod: table full"],
    ["group-mod: unknown group"], ["meter-mod: unknown meter"], or the
    table's own [Invalid_argument] text (a duplicate id, an [Indirect]
    group without exactly one bucket, a non-positive meter band).
    [Modify]/[Delete] flow-mods that match nothing are [Ok ()]. *)

val expire : t -> now_ns:int -> unit
(** Remove every entry of every table whose idle or hard timeout has
    passed at [now_ns]. *)

val total_entries : t -> int
val version : t -> int
(** Sum of table versions — changes whenever any table changes. *)
