(** sFlow-style sampled flow recorder: the per-switch half of the
    traffic observability plane.

    A recorder sits on the switch's receive path ({!Soft_switch} calls
    {!observe} for every packet it processes).  Every packet updates a
    HyperLogLog of source hosts (a register max — allocation-free);
    every [rate]-th packet is {e sampled}: its 5-tuple
    {!Netpkt.Packet.Flow_key} is materialized and its byte count,
    scaled by [rate], feeds a count-min sketch, a space-saving top-k
    and a bounded ring of raw flow records.  Memory is therefore fixed
    regardless of flow count, and everything is seeded —
    deterministic across runs.

    The skip branch allocates nothing (pinned by tests). *)

type record = {
  rc_key : Netpkt.Packet.Flow_key.t;
  rc_hash : int;  (** [Flow_key.hash ~seed] under the recorder's seed *)
  rc_bytes : int;  (** frame bytes multiplied by the sampling rate *)
  rc_ts_ns : int;
  rc_in_port : int;
}

type config = {
  rate : int;  (** sample 1 in [rate] packets ([>= 1]; 1 = every packet) *)
  cm_epsilon : float;
  cm_delta : float;
  hll_p : int;
  topk : int;
  ring : int;  (** raw-record ring capacity (0 disables the ring) *)
  seed : int;
}

val default_config : config
(** rate 16, epsilon 0.005, delta 0.01, p 14, k 32, ring 256, seed 42. *)

type t

val create : ?config:config -> unit -> t
(** @raise Invalid_argument on a non-positive rate, a negative ring, or
    sketch parameters out of range. *)

val config : t -> config

val observe : t -> now_ns:int -> in_port:int -> Netpkt.Packet.t -> unit
(** Feed one processed packet through the recorder. *)

val seen : t -> int
(** Packets observed (sampled or not). *)

val sampled : t -> int

val cm : t -> Telemetry.Sketch.Cm.t
(** Estimated bytes per flow, keyed by [rc_hash]. *)

val hll : t -> Telemetry.Sketch.Hll.t
(** Distinct source hosts (fed on {e every} IP packet, not just
    samples, so cardinality is exact-stream coverage). *)

val topk : t -> Telemetry.Sketch.Topk.t
(** Estimated-byte heavy hitters keyed by [Flow_key.to_string]. *)

val records : t -> record list
(** The ring's contents, oldest first, at most [config.ring] entries. *)

val set_on_sample : t -> (record -> unit) -> unit
(** Hook invoked after each sampled record (accuracy rigs use this to
    keep an exact reference of the sampled sub-stream). *)
