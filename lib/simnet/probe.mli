(** Timestamped probe payloads: UDP payloads carrying their send time so
    the receiver can compute one-way latency. *)

val magic : string
(** 2-byte payload prefix identifying a probe. *)

val encode : sent_at:Sim_time.t -> pad_to:int -> string
(** A payload of at least [pad_to] bytes (and at least 10) embedding
    [sent_at]. *)

val decode : string -> int
(** The embedded send instant in nanoseconds, or [-1] if the payload is
    not a probe.  Allocates nothing. *)
