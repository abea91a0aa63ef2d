(** Differential equivalence testing of the policy compiler.

    For each {e spec} — a scenario with a policy term and value pools to
    fuzz from — a {e case} (a timed packet sequence) is replayed through
    two witnesses and the implementations under test:

    - the {b interpreter} ({!Policy.Interp}): the denotational ground
      truth, no flow table involved;
    - the {b compiled table} ({!Policy.Compile.messages}), the rules the
      proactive SS_2 apps install, on an oracle-driven pipeline {e and}
      on every backend in {!Softswitch.Backends.all};
    - where the spec carries one, a {b hand-written} rule set on a
      one-table oracle-driven pipeline.  Only [parental] does: its app
      installs hand-written rules per event.

    Every packet's output set is compared under a normalized rendering:
    outputs only (sorted, deduplicated, [IN_PORT] resolved to the ingress
    port) — table-miss flags and matched-rule lists are excluded because
    the implementations legitimately differ there (compiled tables are
    total; a hand-written table may miss where the policy's answer is the
    empty set).  The first disagreement is a {e divergence}; divergences
    shrink greedily (packet steps removed while the divergence persists)
    and serialize to a text repro file, exactly like {!Differential}.

    Specs are plain records, so a test can also build a custom one — e.g.
    pairing a policy with a deliberately broken rule set to prove the
    harness catches and shrinks real compiler bugs. *)

type spec = {
  spec_name : string;
  ports : int;  (** packets arrive on ports [0 .. ports-1] *)
  hand : Openflow.Of_message.t list option;
      (** the optional hand-written witness, for table 0 *)
  policy : Policy.Syntax.t;
  mac_pool : Netpkt.Mac_addr.t list;
  ip_pool : Netpkt.Ipv4_addr.t list;
  l4_pool : int list;
}

type step = { now_ns : int; in_port : int; pkt : Netpkt.Packet.t }
type case = { spec : spec; steps : step list }

type divergence = {
  impl : string;
      (** the implementation that disagreed with the interpreter:
          ["hand:oracle"], ["compiled:oracle"] or ["compiled:<backend>"] *)
  step_index : int;
  expected : string;  (** the interpreter's normalized output set *)
  actual : string;
  case : case;  (** shrunk by the time it is reported *)
}

(** {1 Built-in specs} *)

val specs : unit -> spec list
(** Fresh instances (the parental handle is mutable) of the five standard
    scenarios: each SS_2 app standalone — [dmz], [lb], [parental] (with
    its hand-written witness), [ratelimit] (the meters sequenced before a
    MAC-forwarding fragment, as {!Sdnctl.Rate_limiter.create} composes
    them) — plus the full [gateway] composition from {!Sdnctl.Gateway}. *)

val find_spec : string -> spec option

(** {1 Running} *)

val normalize :
  in_port:int -> Openflow.Pipeline.output list -> string
(** The comparison form: sorted deduplicated outputs with packet bytes,
    [IN_PORT] rendered as the concrete ingress port. *)

val gen_case : spec -> seed:int -> case
(** Draw a seeded packet sequence from the spec's pools: ARP, ICMP, UDP
    and TCP (occasionally VLAN-tagged) between pooled addresses, with
    advancing timestamps that occasionally jump far enough to refill
    meter buckets. *)

val check_case : spec -> seed:int -> divergence option
(** Generate (from the seed alone), run, and shrink with {!Fuzz.shrink}. *)

type 'd report = 'd Fuzz.report = {
  cases : int;  (** cases run *)
  packets : int;  (** packet comparisons performed *)
  divergences : 'd list;  (** shrunk, at most 5 reported *)
}

val run :
  ?on_divergence:(divergence -> unit) ->
  spec:spec -> seed:int -> cases:int -> unit -> divergence report
(** Run [cases] seeded cases ([seed], [seed+1], ...) against one spec,
    through {!Fuzz.run}.  The spec's policy is compiled once, and every
    case and shrink step installs the same messages. *)

(** {1 Repro files} *)

val to_string : case -> string
(** The repro text format:
    {v
    # comment
    spec gateway
    packet <now_ns> <in_port> <ethernet frame hex>
    v} *)

val of_string : string -> (case, string) result
(** Resolves the spec by name via {!find_spec}; a custom spec's case
    therefore does not round-trip. *)

val save : path:string -> ?comment:string -> case -> unit

val load : path:string -> (divergence option, string) result
(** Read a repro file and replay it on fresh implementations: [Ok None]
    means the repro no longer diverges, [Ok (Some d)] reproduces it,
    [Error] is a parse failure. *)

val pp_divergence : Format.formatter -> divergence -> unit
