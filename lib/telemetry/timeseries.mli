(** Fixed-capacity time series: the storage layer of the monitoring
    plane.

    A series is a ring buffer of [(ts_ns, value)] points — when full,
    the oldest point is overwritten, so memory is bounded no matter how
    long a poller runs.  Timestamps are sim-time nanoseconds and must be
    non-decreasing (the pollers feeding these all run on one engine
    clock, so this costs nothing and keeps every window query a simple
    scan of a contiguous suffix).

    Two kinds of series by convention:
    - {e gauge} series store instantaneous values (port utilization,
      RTT); read them with {!last}, {!min_over}, {!max_over},
      {!avg_over};
    - {e counter} series store cumulative totals (flow bytes, port
      packets); read them with {!rate_over}, which differentiates.

    All queries are over the window [[now_ns - window, now_ns]]
    (inclusive) and return [None] when no point falls inside it. *)

type t

val create : ?capacity:int -> name:string -> unit -> t
(** A fresh, empty series.  Default capacity 1024 points.
    @raise Invalid_argument if [capacity < 2] (rates need two points). *)

val name : t -> string

val length : t -> int
(** Points currently held, [<= capacity]. *)

val total_recorded : t -> int
(** Points ever recorded, including ones the ring has evicted. *)

val record : t -> ts_ns:int -> float -> unit
(** Append a point, evicting the oldest when full.
    @raise Invalid_argument if [ts_ns] precedes the newest point. *)

val last : t -> (int * float) option
(** The newest [(ts_ns, value)] point. *)

val to_list : t -> (int * float) list
(** All held points, oldest first. *)

val min_over : t -> now_ns:int -> window:int -> float option
val max_over : t -> now_ns:int -> window:int -> float option

val avg_over : t -> now_ns:int -> window:int -> float option
(** Unweighted mean of the points in the window. *)

val rate_over : t -> now_ns:int -> window:int -> float option
(** (newest - oldest) / elapsed-seconds across the points in the
    window: the per-second growth of a cumulative counter.  [None]
    unless the window holds two points with distinct timestamps.
    Negative if the counter was reset mid-window — callers that poll
    across a switch crash should treat a negative rate as a restart. *)

val newest_age : t -> now_ns:int -> int option
(** [now_ns - ts] of the newest point — how stale the series is.  The
    absence-alert primitive. *)

val clear : t -> unit
