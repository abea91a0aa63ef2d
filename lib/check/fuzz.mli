(** The harness every differential checker of this library shares: the
    implementations a case runs on, the greedy shrinker, the seed loop
    and the [.repro] text skeleton.

    A checker ({!Differential}, {!Policy_equiv}) supplies only its case
    generator, its step type and its header directives; a new checker
    plugs into the same functions, so its findings shrink, report and
    replay like the others. *)

val implementations :
  num_tables:int ->
  (string * Openflow.Pipeline.t * Softswitch.Dataplane.t) list
(** Every implementation a case is held to: ["oracle"] ({!Oracle.dataplane})
    first, then {!Softswitch.Backends.all} in order, each over its own
    fresh pipeline of [num_tables] tables.  Rules go in through
    {!Openflow.Pipeline.apply} on the returned pipeline. *)

val shrink : ('step list -> 'd option) -> 'step list -> 'd -> 'd
(** [shrink run steps d]: [d] is what [run steps] found.  Remove one
    step at a time, last first, keeping each removal after which [run]
    still finds a divergence, and repeat the passes until one removes
    nothing.  The result is [run]'s divergence on the final list, which
    keeps the original step order and is 1-minimal: removing any single
    step of it makes [run] answer [None]. *)

type 'd report = {
  cases : int;  (** cases run *)
  packets : int;  (** packet comparisons performed *)
  divergences : 'd list;  (** shrunk, at most 5 reported *)
}

val run :
  ?on_divergence:('d -> unit) ->
  gen:(int -> 'case) ->
  packets:('case -> int) ->
  check:('case -> 'd option) ->
  seed:int ->
  cases:int ->
  unit ->
  'd report
(** The seed loop: case [i] is [gen (seed + i)] for [i < cases].  Every
    case's packets are counted; [check] (run, then shrink) runs until 5
    divergences have been found, each passed to [on_divergence] as it
    is found. *)

(** {1 Repro files}

    A repro is lines of space-separated tokens.  Blank lines and lines
    whose first token starts with [#] are comments.  The shared
    directive is [packet <now_ns> <in_port> <ethernet frame hex>]; a
    checker adds its own header directives. *)

val add_packet :
  Buffer.t -> now_ns:int -> in_port:int -> Netpkt.Packet.t -> unit
(** Append one [packet] line. *)

val int_of : string -> what:string -> (int, string) result
(** Parse a decimal int; the error names [what]. *)

val parse :
  directive:('acc -> string list -> ('acc, string) result option) ->
  packet:('acc -> now_ns:int -> in_port:int -> Netpkt.Packet.t -> 'acc) ->
  'acc ->
  string ->
  ('acc, string) result
(** Fold the lines of a repro into an accumulator.  [packet] takes each
    well-formed [packet] line; every other line goes to [directive] as
    its tokens, which answers [None] for a directive it does not know.
    Errors name their line: ["line 3: bad timestamp \"x\""]. *)

val save : path:string -> ?comment:string -> string -> unit
(** Write a repro's text to [path], after [comment] as [#] lines. *)

val load :
  path:string ->
  of_string:(string -> ('case, string) result) ->
  run:('case -> 'd option) ->
  ('d option, string) result
(** Read [path], parse it with [of_string] and [run] the case: [Ok None]
    means the repro no longer diverges, [Ok (Some d)] reproduces it,
    [Error] is a parse failure. *)
