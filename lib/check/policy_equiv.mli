(** Differential equivalence testing of the policy compiler.

    For each {e spec} — a scenario with a policy term, the rules under
    test and value pools to fuzz from — a {e case} (a timed packet
    sequence) is replayed through the {b interpreter}
    ({!Policy.Interp}), the denotational ground truth with no flow table
    involved, and through the spec's rules (for the built-in specs the
    compiled table, {!Policy.Compile.messages}, the rules the apps
    install) on an oracle-driven pipeline {e and} on every backend in
    {!Softswitch.Backends.all}.

    Every packet's outcome is compared under a normalized rendering: the
    outputs (sorted, deduplicated, [IN_PORT] resolved to the ingress
    port) and a miss marker.  The interpreter misses where the policy
    answers [pass], a table where no rule matches, so a table that drops
    what the policy leaves to the next app diverges.  Matched-rule lists
    are excluded.  The first disagreement is a {e divergence};
    divergences shrink greedily (packet steps removed while the
    divergence persists) and serialize to a text repro file, exactly like
    {!Differential}.

    Specs are plain records, so a test can also build a custom one — e.g.
    pairing a policy with a deliberately broken table to prove the
    harness catches and shrinks real compiler bugs. *)

type spec = {
  spec_name : string;
  ports : int;  (** packets arrive on ports [0 .. ports-1] *)
  policy : Policy.Syntax.t;
  table : Openflow.Of_message.t list;
      (** the rules under test, for table 0; the built-in specs hold the
          compile of [policy] *)
  mac_pool : Netpkt.Mac_addr.t list;
  ip_pool : Netpkt.Ipv4_addr.t list;
  l4_pool : int list;
}

type step = { now_ns : int; in_port : int; pkt : Netpkt.Packet.t }
type case = { spec : spec; steps : step list }

type divergence = {
  impl : string;
      (** the implementation that disagreed with the interpreter:
          ["compiled:oracle"] or ["compiled:<backend>"] *)
  step_index : int;
  expected : string;  (** the interpreter's normalized output set *)
  actual : string;
  case : case;  (** shrunk by the time it is reported *)
}

(** {1 Built-in specs} *)

val specs : unit -> spec list
(** Fresh instances (the parental handle is mutable) of the five standard
    scenarios: each SS_2 app standalone — [dmz], [lb], [parental] (whose
    policy ends in [pass]), [ratelimit] (the meters sequenced before a
    MAC-forwarding fragment, as {!Sdnctl.Rate_limiter.create} composes
    them) — plus the full [gateway] composition from {!Sdnctl.Gateway}. *)

val find_spec : string -> spec option
(** A fresh instance of one of {!specs}, compiling only that one. *)

(** {1 Running} *)

val normalize : in_port:int -> Openflow.Pipeline.result -> string
(** The comparison form: sorted deduplicated outputs with packet bytes,
    [IN_PORT] rendered as the concrete ingress port, then [" miss"] if
    the packet missed. *)

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
    through {!Fuzz.run}.  Every case and shrink step installs the spec's
    [table] on fresh implementations. *)

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
