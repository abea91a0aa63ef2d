(** A deterministic plan for transient management-plane failures.

    Every SNMP or NAPALM operation on a device carrying a plan consults
    it; the plan answers "this one times out" either because a scripted
    burst is pending ({!fail_next} — what the chaos [flaky n] action
    arms) or by a seeded coin flip ({!set_fail_probability}).  Equal
    seeds give equal failure sequences, so retry behaviour is fully
    reproducible. *)

type t

val create : ?seed:int -> ?fail_probability:float -> unit -> t
(** Defaults: seed 1, probability 0 (never fails until armed). *)

val fail_next : t -> int -> unit
(** Arm the next [n] operations to fail (accumulates). *)

val set_fail_probability : t -> float -> unit
(** Ongoing random failure rate in [0, 1]; 1.0 = management black-out. *)

val should_fail : t -> bool
(** Consume one operation slot.  Forced failures are spent first, then
    the probability stream. *)

val injected : t -> int
(** Failures injected so far. *)
