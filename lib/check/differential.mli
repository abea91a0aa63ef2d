(** Differential fuzzing of the dataplane backends against {!Oracle}.

    A {e scenario} is a timed sequence of control-plane and data-plane
    steps — flow/group/meter mods, explicit timeout-expiry sweeps, and
    packets.  Running a scenario replays the exact same steps against a
    fresh pipeline per implementation (every backend in
    {!Softswitch.Backends.all}, plus the oracle), and compares the
    normalized forwarding result of every packet step.  The first
    disagreement is a {e divergence}.

    Divergences shrink greedily ({!Fuzz.shrink}: steps are removed while
    the divergence persists) and serialize to a text repro file — flow mods as OpenFlow
    frame hex, packets as frame hex — that {!load} replays verbatim, so
    a fuzzer finding becomes a pinned regression the moment it is
    committed.  Generation is seeded: the same seed always yields the
    same scenario, independent of any global RNG state. *)

type step =
  | Msg of { now_ns : int; msg : Openflow.Of_message.t }
      (** Apply a [Flow_mod]/[Group_mod]/[Meter_mod] to every pipeline
          through {!Openflow.Pipeline.apply}, the soft switch's own
          control path.  A message it rejects (bad table id, table full,
          duplicate/unknown group or meter id) leaves every pipeline
          unchanged alike.  Other message types are no-ops. *)
  | Expire of { now_ns : int }
      (** Sweep idle/hard timeouts on every table with
          {!Openflow.Pipeline.expire}, the switch's periodic sweep. *)
  | Packet of { now_ns : int; in_port : int; pkt : Netpkt.Packet.t }
      (** Process a packet and compare results across implementations. *)

type scenario = { tables : int; ports : int; steps : step list }

type divergence = {
  backend : string;     (** the implementation that disagreed *)
  step_index : int;     (** index of the offending packet step *)
  expected : string;    (** the oracle's normalized result *)
  actual : string;      (** the backend's normalized result *)
  scenario : scenario;  (** shrunk by the time it is reported *)
}

val render_output : Openflow.Pipeline.output -> string
(** One output with its packet's bytes as hex, e.g. ["port:2:0200…"]. *)

val render_result : Openflow.Pipeline.result -> string
(** The normalized form results are compared under: outputs with packet
    bytes, table-miss flag, and matched entries as
    (priority, match, instructions) — counters excluded, so two
    pipelines with identical behaviour render identically. *)

(** The building-block generators, shared with the codec fuzzer and the
    test suite.  All draw from small pools (MACs, IPs, VIDs, L4 ports)
    so independently generated rules and packets collide often. *)

val gen_match : Simnet.Rng.t -> ports:int -> Openflow.Of_match.t
val gen_actions : Simnet.Rng.t -> ports:int -> Openflow.Of_action.t list

val gen_flow_mod :
  Simnet.Rng.t ->
  tables:int ->
  ports:int ->
  force_add:bool ->
  Openflow.Of_message.flow_mod

val gen_group_mod : Simnet.Rng.t -> ports:int -> Openflow.Of_message.group_mod
val gen_meter_mod : Simnet.Rng.t -> Openflow.Of_message.meter_mod
val gen_packet : Simnet.Rng.t -> Netpkt.Packet.t

val gen_scenario : Simnet.Rng.t -> scenario
(** Draw a random scenario: pooled MACs/IPs/VIDs/ports so rules and
    packets actually meet, priority ties, flow-mod churn, goto chains,
    groups, meters, time jumps past the timeout horizon, and repeated
    packets to exercise cache-hit paths. *)

val run_scenario : scenario -> divergence option
(** Replay on fresh pipelines; [None] = all implementations agreed on
    every packet. *)

val check_case : seed:int -> divergence option
(** Generate (from the seed alone), run, and shrink with {!Fuzz.shrink}. *)

type 'd report = 'd Fuzz.report = {
  cases : int;         (** scenarios run *)
  packets : int;       (** packet comparisons performed *)
  divergences : 'd list;  (** shrunk, at most 5 reported *)
}

val run :
  ?on_divergence:(divergence -> unit) ->
  seed:int -> cases:int -> unit -> divergence report
(** Run [cases] seeded cases ([seed], [seed+1], ...) through {!Fuzz.run}. *)

val to_string : scenario -> string
(** The repro text format:
    {v
    # comment
    tables 4
    ports 3
    msg <now_ns> <openflow frame hex>
    expire <now_ns>
    packet <now_ns> <in_port> <ethernet frame hex>
    v} *)

val of_string : string -> (scenario, string) result

val save : path:string -> ?comment:string -> scenario -> unit
(** Write {!to_string} (with an optional leading comment) to [path]. *)

val load : path:string -> (divergence option, string) result
(** Read a repro file and {!run_scenario} it: [Ok None] means the repro
    no longer diverges (the bug is fixed), [Ok (Some d)] reproduces it,
    [Error] is a parse failure. *)

val pp_divergence : Format.formatter -> divergence -> unit
