(** FDD → priority flow table.

    The diagram is walked depth-first, [hi] before [lo], emitting one rule
    per leaf visit with strictly descending priorities.  A rule's match is
    the conjunction of the positive tests on its path; the negative ([lo])
    edges need no encoding because every [hi]-side leaf above shadows the
    packets it captures — which is also why interior drop leaves {e must}
    emit rules.  The only safe omission is the trailing run of rules that
    agree with the policy's last fallback:
    - if that fallback is a drop, the run becomes a single priority-0
      catch-all drop, so the table is total (no table miss, no spurious
      packet-ins from send-to-controller miss behaviour);
    - if it is {!Syntax.pass}, the run emits nothing and there is no
      catch-all: those packets miss, and reach whatever sits below the
      table (the next app's rules, or a packet-in).

    A [pass] cannot appear anywhere else.  Inside one table a miss skips
    every lower rule, so a [pass] rule that the minimization keeps (an
    interior [pass] that would shadow a lower rule, or a [pass] sharing a
    leaf with other actions) is rejected with the leaf named.

    {b One priority band.}  Every compiled table's rules count up from
    {!base}, one priority per rule, and stay below {!ceiling}; the
    catch-all sits at 0.  Apps place their own rules relative to the
    band: [L2_learning]'s learned MACs below {!base}, and rules that must
    outrank any compiled decision (parental control's pinned drops) at
    {!ceiling} and above.

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

val base : int
(** 2000: the priority of a compiled table's lowest rule. *)

val ceiling : int
(** 32000: the first priority above every compiled rule. *)

val compile : ?table_id:int -> Syntax.t -> t
(** @raise Invalid_argument on an ill-formed policy (see {!Syntax.check}
    and {!Fdd.of_policy}), a meter declared with two different bands, a
    meter inside a multi-action leaf, a [pass] the table cannot encode
    (above), or more rules than fit between {!base} and {!ceiling}. *)

val messages : t -> Openflow.Of_message.t list
(** Meters, then groups, then flows — dependency order; flows in
    descending priority order, catch-all drop (if any) last. *)

val diff : old:t -> t -> Openflow.Of_message.t list
(** The flow-mods that turn a switch holding [old]'s table into one
    holding the new table: adds for the rules [old] lacks, then strict
    deletes for [old]'s rules whose priority and match the new table
    does not use.  Sent in order without barriers, so for a moment the
    switch holds rules of both.
    @raise Invalid_argument if either table has groups or meters. *)

val render : t -> string
(** Deterministic human-readable dump (meters, groups, then rules with
    priority, match and actions) — the format committed as goldens. *)
