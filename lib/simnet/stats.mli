(** Measurement primitives: counters, throughput meters and latency
    histograms.  These are what the experiment harness reads out to build
    the paper-shaped tables. *)

(** Monotonic named counters. *)
module Counter : sig
  type t

  val create : unit -> t
  val incr : ?by:int -> t -> string -> unit
  val get : t -> string -> int
  (** 0 for a name never incremented. *)

  val to_list : t -> (string * int) list
  (** Sorted by name. *)

  val reset : t -> unit
end

(** Byte/packet rate over a measurement window. *)
module Meter : sig
  type t

  val create : unit -> t
  val record : t -> now:Sim_time.t -> bytes:int -> unit
  val packets : t -> int
  val bytes : t -> int

  val start_window : t -> now:Sim_time.t -> unit
  (** Forget everything before [now]; rates are measured from here. *)

  val pps : t -> now:Sim_time.t -> float
  (** Packets per second since the window start (0 if no time elapsed). *)

  val bps : t -> now:Sim_time.t -> float
  (** Payload bits per second since the window start. *)
end

(** Log-bucketed latency histogram (HDR-style, ~4% relative precision). *)
module Histogram : sig
  type t

  val create : unit -> t
  val record : t -> int -> unit
  (** Record a non-negative sample (nanoseconds by convention). *)

  val count : t -> int
  val min : t -> int
  (** @raise Invalid_argument when empty. *)

  val max : t -> int
  val mean : t -> float
  val percentile : t -> float -> int
  (** [percentile t 99.0] — the smallest recorded bucket value at or above
      the given percentile.  @raise Invalid_argument when empty or p
      outside (0, 100]. *)

  val merge : t -> t -> t
end
