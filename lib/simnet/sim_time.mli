(** Simulated time.

    Time is an integer count of nanoseconds since the start of the
    simulation; spans are signed nanosecond differences.  At 1 ns
    resolution an [int] covers ~292 years on 64-bit, far beyond any
    experiment here. *)

type t = private int
(** An absolute instant, in nanoseconds. *)

type span = int
(** A duration, in nanoseconds. *)

val zero : t
val of_ns : int -> t
(** @raise Invalid_argument if negative. *)

val to_ns : t -> int
val add : t -> span -> t
(** @raise Invalid_argument if the result would be negative. *)

val diff : t -> t -> span
(** [diff a b] is [a - b]. *)

val max : t -> t -> t
val compare : t -> t -> int
val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool

val ns : int -> span
val us : int -> span
val ms : int -> span
val s : int -> span
val of_seconds : float -> span
(** Rounded to the nearest nanosecond. *)

val span_to_seconds : span -> float
val pp : Format.formatter -> t -> unit
(** Human-readable, e.g. ["1.250ms"]. *)

val pp_span : Format.formatter -> span -> unit
