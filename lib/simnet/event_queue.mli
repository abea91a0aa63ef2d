(** Priority queue of timestamped events (binary min-heap).

    Ties are broken by insertion order, so events scheduled for the same
    instant run in FIFO order — important for deterministic replays. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val push : 'a t -> Sim_time.t -> 'a -> unit
val pop : 'a t -> (Sim_time.t * 'a) option
(** Earliest event, or [None] when empty. *)

val peek_time : 'a t -> Sim_time.t option
