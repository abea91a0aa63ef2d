(** First-order forwarding decision diagrams.

    An FDD is a binary decision diagram whose internal nodes test a single
    [(field, value)] pair — true edge [hi], false edge [lo] — and whose
    leaves carry the {e set} of actions the policy performs on packets
    reaching them.  Nodes are hash-consed, so semantic equality of the
    represented functions coincides with physical equality of nodes (one
    [==] or [uid] comparison), which is what the algebraic-law tests pin.

    Invariants maintained by the smart constructors:
    - keys strictly increase along every path (by {!Syntax.compare_key}:
      field rank first, then value), so a field is never re-tested with the
      same value and the [hi] edge of a test on [f] never re-tests [f];
    - no node has [hi == lo] (such nodes are collapsed).

    Those are the {e only} reductions: no context-sensitive rewrite (such
    as eliminating a modification [f := v] under the test [(f, v)]) is
    applied, because a rewrite that fires only where a test node happens to
    sit above a leaf makes the normal form depend on construction order and
    breaks the structural algebraic laws. *)

type key = Syntax.field * Syntax.value

(** A single action: modifications applied in field order, an optional
    token-bucket meter, and an optional hash-based bucket choice.  A leaf
    holds a sorted set of these. *)
module Act : sig
  type t = private {
    mods : (Syntax.field * Syntax.value) list;
        (** sorted by field rank, at most one entry per field *)
    police : Syntax.police option;
    balance : (Syntax.field * Syntax.value) list list option;
  }

  val make :
    ?police:Syntax.police ->
    ?balance:(Syntax.field * Syntax.value) list list ->
    (Syntax.field * Syntax.value) list ->
    t
  (** Normalises the modification list (last write per field wins,
      sorted).  Notably it does {e not} erase rewrites under a discard:
      a later composition can overwrite [Loc] and resurrect the packet,
      so that quotient is only sound at observation time
      ({!strip_disc}). *)

  val loc : t -> Syntax.location option
  (** The location modification, if any ([None] = leave at ingress port). *)
end

type t = private { uid : int; node : node }
and node = Leaf of Act.t list | Branch of key * t * t

val equal : t -> t -> bool
(** Physical (= semantic, by hash-consing) equality. *)

val leaf : Act.t list -> t
val drop : t
val id : t
val atom : key -> t

val sum : t -> t -> t
(** Union: pointwise set union of leaf action sets. *)

val prod : t -> t -> t
(** [prod pred d] guards [d] by a {e predicate} diagram (leaves [[]] or
    [[id]] only). @raise Invalid_argument if the left operand is not one. *)

val negate : t -> t
(** @raise Invalid_argument on a non-predicate diagram. *)

val of_policy : Syntax.t -> t
(** Checks well-formedness ({!Syntax.check}) then compiles.
    @raise Invalid_argument as {!Syntax.check} or {!negate} do, or on a
    test, modification or meter after [Balance] or a second meter in
    sequence. *)

val strip_disc : t -> t
(** Quotient by output observability: plain-discard actions (location
    finally [Disc], no meter, no bucket choice) are removed from every
    leaf, so a leaf of discards alone becomes {!drop}.  The distinctions are kept during
    composition because the algebra can still see them — [orelse] stops
    at an explicit discard but falls through an empty set, and a later
    [seq] can test or overwrite a discarded state's fields — but a flow
    table cannot: the final action set is all that remains.  Used by the
    compiler, never during policy composition. *)

val leaves : t -> Act.t list list
(** All distinct leaf action sets, in left-to-right order. *)

val to_string : t -> string
