(** Log-bucketed value histogram (HDR-style): values 0..63 are exact,
    larger ones fall into 16 sub-buckets per power of two (<= ~6%
    relative error).  The one histogram of the tree: host latency,
    experiment tables and {!Registry.Histogram} all record into it.
    Samples are non-negative ints (nanoseconds or cycles by
    convention). *)

type t

val create : unit -> t

val record : t -> int -> unit
(** @raise Invalid_argument on a negative sample. *)

val count : t -> int

val sum : t -> float
(** Sum of the recorded samples. *)

val min : t -> int
(** @raise Invalid_argument when empty. *)

val max : t -> int
(** @raise Invalid_argument when empty. *)

val mean : t -> float
(** 0 when empty. *)

val percentile : t -> float -> int
(** [percentile t 99.0] — the upper bound of the bucket holding that
    percentile, clamped to the recorded min and max.
    @raise Invalid_argument when empty or p outside (0, 100]. *)

val merge : t -> t -> t
(** A fresh histogram holding the samples of both. *)

val reset : t -> unit
(** Forget every sample. *)
