(** Full-duplex point-to-point links with finite bandwidth, propagation
    delay and a tail-drop output queue per direction.

    The queueing model: each direction tracks when its transmitter becomes
    free.  A frame offered while the transmitter is busy waits; the wait
    corresponds to the bytes already committed, and if that backlog would
    exceed [queue_bytes] the frame is tail-dropped.  Frames larger than
    [mtu] (payload bytes after the MAC header and any tags) are dropped
    and counted. *)

type config = {
  bandwidth_bps : int;     (** e.g. [1_000_000_000] for 1 GbE *)
  propagation : Sim_time.span;
  queue_bytes : int;       (** output queue capacity *)
  mtu : int;               (** maximum payload size, conventionally 1500 *)
  loss : float;            (** random frame-loss probability, [0, 1) *)
  jitter : Sim_time.span;  (** extra uniform [0, jitter] propagation delay *)
  impair_seed : int;       (** seed for the loss/jitter stream *)
}

val gige : config
(** 1 Gb/s, 5 us propagation, 512 KiB queue, 1500 MTU. *)

val ten_gige : config
(** 10 Gb/s, 5 us propagation, 2 MiB queue, 1500 MTU. *)

val config :
  ?bandwidth_bps:int -> ?propagation:Sim_time.span -> ?queue_bytes:int ->
  ?mtu:int -> ?loss:float -> ?jitter:Sim_time.span -> ?impair_seed:int ->
  unit -> config
(** {!gige} with overrides.  Loss and jitter default to zero: links are
    perfect unless a test injects impairments. *)

type t

val connect :
  ?a_to_b:config -> ?b_to_a:config -> Node.t * int -> Node.t * int -> t
(** [connect (na, pa) (nb, pb)] attaches the two ports back-to-back.  Both
    directions default to {!gige}.  The nodes must share an engine.
    @raise Invalid_argument if either port is already attached or the
    engines differ. *)

val disconnect : t -> unit

val set_up : t -> bool -> unit
(** Administratively (or faultily) take both directions down or bring
    them back.  Down: frames offered to either end are dropped (counted
    [drops_down]) and both endpoints lose carrier (firing their
    attachment-change watchers).  Unlike {!disconnect} the attachment
    survives, so [set_up t true] restores service — the primitive the
    fault injector uses for link down/up events. *)

val set_impairments : ?loss:float -> ?jitter:Sim_time.span -> t -> unit
(** Degrade (or heal) a live link: override the loss probability and/or
    jitter of both directions.  The seeded impairment streams continue —
    runs stay deterministic.
    @raise Invalid_argument on loss outside [0, 1) or negative jitter. *)

(** Per-direction statistics. *)
type dir_stats = {
  tx_packets : int;
  tx_bytes : int;      (** wire bytes, including padding and FCS *)
  drops_queue : int;
  drops_mtu : int;
  drops_loss : int;    (** random losses from the impairment model *)
  drops_down : int;    (** frames offered while the link was down *)
}

val stats_a_to_b : t -> dir_stats

val utilization_a_to_b : t -> now:Sim_time.t -> float
(** Fraction of capacity used since the start of the simulation. *)
