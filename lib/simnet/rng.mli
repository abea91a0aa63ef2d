(** Deterministic, seedable pseudo-random numbers (splitmix64) plus the
    distributions the traffic generators need.  Every experiment takes an
    explicit seed so runs are reproducible. *)

type t

val create : int -> t
(** [create seed] — equal seeds give equal streams. *)

val split : t -> t
(** An independent stream derived from (and advancing) [t]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [lo, hi] inclusive. *)

val float : t -> float -> float
(** Uniform in [0, bound). *)

val bool : t -> bool
val bits64 : t -> int64

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean (> 0). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. @raise Invalid_argument on []. *)

(** Zipf-distributed ranks, for skewed workloads. *)
module Zipf : sig
  type rng := t
  type t

  val create : n:int -> skew:float -> t
  (** Ranks [0, n); [skew] >= 0 (0 = uniform). Uses an inverse-CDF table;
      O(n) setup, O(log n) per draw. *)

  val draw : t -> rng -> int
end
