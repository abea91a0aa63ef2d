(** FDD → priority flow table.

    The diagram is walked depth-first, [hi] before [lo], emitting one rule
    per leaf visit with strictly descending priorities.  A rule's match is
    the conjunction of the positive tests on its path; the negative ([lo])
    edges need no encoding because every [hi]-side leaf above shadows the
    packets it captures — which is also why interior drop leaves {e must}
    emit rules.  The only safe omission is the trailing run of drop rules,
    replaced by a single priority-0 catch-all drop; compiled tables are
    therefore total (no table miss, no spurious packet-ins from
    send-to-controller miss behaviour).

    Leaves map to OpenFlow as follows:
    - a single action: [Apply_actions] of its rewrites (field order) plus
      one output, prefixed by a [Meter] instruction when policed;
    - a [Balance]: a [Select] group of weight-1 buckets, one per choice;
    - several actions: an [All] group with one bucket per action, because
      buckets isolate rewrites the way output sets require (an inline
      action list would leak each action's rewrites into the next);
    - a meter inside a multi-action leaf has no OpenFlow encoding (meters
      are rule-level) — rejected.

    Structurally identical groups are shared.  Group and meter mods are
    ordered before flow mods in {!messages} so tables can be installed by
    replaying the list in order. *)

type t

val compile : ?table_id:int -> Syntax.t -> t
(** @raise Invalid_argument on an ill-formed policy (see {!Syntax.check}
    and {!Fdd.of_policy}), a meter declared with two different bands, or a
    meter inside a multi-action leaf. *)

val policy : t -> Syntax.t
val fdd : t -> Fdd.t

val flow_mods : t -> Openflow.Of_message.flow_mod list
(** In descending priority order, catch-all drop last. *)

val messages : t -> Openflow.Of_message.t list
(** Meters, then groups, then flows — dependency order. *)

val flow_count : t -> int
val group_count : t -> int
val meter_count : t -> int

val render : t -> string
(** Deterministic human-readable dump (meters, groups, then rules with
    priority, match and actions) — the format committed as goldens. *)
