(** Direct denotational interpreter — ground truth for the compiler.

    [run] evaluates the policy syntax tree on one packet, with no decision
    diagram and no flow table involved, and returns pipeline-shaped
    results.  Meter state (for [Police]) lives in the interpreter value and
    advances with the [now_ns] timestamps passed to [run], exactly like a
    switch's meter table does, so a packet sequence replayed through both
    the interpreter and a compiled table sees identical token-bucket
    decisions.

    Semantics notes (all mirrored by the compiled table):
    - modifications are "ghost writes": setting a field a packet does not
      carry (e.g. [Ip_src] on ARP) still shadows subsequent tests of that
      field, but rewrites nothing when the packet is rendered — OpenFlow's
      no-op-on-prerequisite-failure;
    - outputs are a set: duplicate effects collapse;
    - [Police] applies once per surviving output state, after evaluation
      (a metered branch whose continuation drops consumes no tokens);
    - [Balance] picks its bucket with the pipeline's {!Openflow.Pipeline.flow_hash}
      of the packet {e after} upstream modifications, replicating
      [Group_table.select_buckets] on weight-1 buckets;
    - a [pass] output is no output and sets [table_miss], as a packet no
      rule of a compiled table matches does. *)

type t

val create : Syntax.t -> t
(** Checks the policy ({!Syntax.check}) and registers its meters.
    @raise Invalid_argument on an ill-formed policy or on two [Police]
    nodes that give the same [meter_id] different bands. *)

val run :
  t -> now_ns:int -> in_port:int -> Netpkt.Packet.t ->
  Openflow.Pipeline.result
(** The outputs and the miss flag; [matched] is empty.
    @raise Invalid_argument on paths the compiler also rejects (policy
    after [Balance], two meters in sequence). *)
