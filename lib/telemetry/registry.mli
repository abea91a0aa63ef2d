(** Unified metrics registry: named, labelled counters, gauges and
    HDR-style histograms with Prometheus-text and JSON exposition.

    This generalizes the per-component tallies scattered through the
    tree (per-node [Simnet.Stats] counters, soft-switch stats lists,
    controller counts) into one process-wide namespace.  Collection is
    pull-based — components expose [publish_metrics] snapshots — so the
    registry costs nothing on packet hot paths.

    Registering the same [name]+[labels] pair twice returns the same
    underlying series; registering one name under two different metric
    kinds raises [Invalid_argument]. *)

type t
(** A registry: an independent namespace of metric families. *)

type labels = (string * string) list
(** Label pairs; order does not matter (they are normalized sorted).
    Label names must match [[a-zA-Z_][a-zA-Z0-9_]*]; ["quantile"] is
    reserved for the summary exposition. *)

val create : unit -> t

val default : t
(** The process-wide registry used when [?registry] is omitted. *)

(** Monotonic counters. *)
module Counter : sig
  type reg := t
  type t

  val v : ?registry:reg -> ?help:string -> ?labels:labels -> string -> t
  (** Find-or-create the series for [name]+[labels].
      @raise Invalid_argument on a malformed name/labels or a kind
      mismatch with an existing family. *)

  val inc : ?by:int -> t -> unit
  (** @raise Invalid_argument if [by] is negative. *)

  val value : t -> int
end

(** Instantaneous values (floats; [set_int] for convenience). *)
module Gauge : sig
  type reg := t
  type t

  val v : ?registry:reg -> ?help:string -> ?labels:labels -> string -> t
  val set : t -> float -> unit
  val add : t -> float -> unit
  val set_int : t -> int -> unit
  val value : t -> float
end

(** Log-bucketed value distributions (~6% relative error), the same
    bucketing as [Simnet.Stats.Histogram].  Samples are non-negative
    ints (nanoseconds or cycles by convention). *)
module Histogram : sig
  type reg := t
  type t

  val v : ?registry:reg -> ?help:string -> ?labels:labels -> string -> t

  val observe : t -> int -> unit
  (** @raise Invalid_argument on a negative sample. *)

  val count : t -> int
  val sum : t -> float
  val mean : t -> float

  val percentile : t -> float -> int
  (** @raise Invalid_argument when empty or p outside (0, 100]. *)
end

val reset : t -> unit
(** Zero every series (registrations and label sets survive). *)

val to_prometheus : t -> string
(** Prometheus text exposition format.  Families sort by name, series
    by labels; histograms render as summaries (quantile 0.5/0.9/0.99
    plus [_sum] and [_count]). *)

val to_json : t -> string
(** Same content as {!to_prometheus} as one deterministic JSON object:
    [{"metrics":[{"name";"type";"help";"series":[{"labels";"value"}]}]}]. *)

val publish_ints :
  ?registry:t -> prefix:string -> ?help:string -> ?labels:labels ->
  (string * int) list -> unit
(** Snapshot a component's [(name, value)] stats list into gauges named
    [prefix ^ "_" ^ name] (non-alphanumeric characters of [name] map to
    ['_']).  This is the bridge the per-component [publish_metrics]
    hooks use. *)
