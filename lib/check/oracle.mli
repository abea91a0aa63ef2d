(** The conformance oracle: a deliberately naive, spec-literal
    interpreter of an {!Openflow.Pipeline.t}.

    Classification is a plain priority scan over every entry of every
    table — no caches, no templates, no shortcuts, and its own match
    rather than {!Openflow.Of_match.matches} — and instruction
    execution is re-implemented here from the documented pipeline
    semantics rather than shared with the production executor.  The
    oracle is therefore slow on purpose: its only job is to be obviously
    correct, so that {!Differential} can hold the three real dataplanes
    (and, transitively, the shared executor itself) to its answers.

    Like the real dataplanes, the oracle updates flow-entry counters and
    meter buckets as it goes, so a pipeline driven only by the oracle
    ages (idle timeouts, meter tokens) exactly like one driven by a
    backend — a precondition for lock-step differential runs. *)

val matches : Openflow.Of_match.t -> in_port:int -> Netpkt.Packet.t -> bool
(** The oracle's own match, written from the OpenFlow field semantics
    against the frame's headers, not through {!Netpkt.Packet.Fields}.  It
    shares no code with {!Openflow.Of_match.matches}, so it can witness
    that function's field encoding. *)

val classify :
  Openflow.Pipeline.t ->
  table_id:int ->
  in_port:int ->
  Netpkt.Packet.t ->
  Openflow.Flow_entry.t option
(** Highest-priority matching entry of one table under {!matches}, by
    exhaustive scan; ties go to the entry added first. *)

val execute :
  Openflow.Pipeline.t ->
  now_ns:int ->
  in_port:int ->
  Netpkt.Packet.t ->
  Openflow.Pipeline.result
(** Walk the packet through the pipeline under oracle classification and
    oracle instruction execution. *)

val dataplane : Openflow.Pipeline.t -> Softswitch.Dataplane.t
(** The oracle wearing the standard dataplane interface (cycle cost 0 —
    it is a specification, not an implementation). *)
