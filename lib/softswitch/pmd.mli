(** A DPDK-style poll-mode-driver CPU model.

    Packets are served run-to-completion by a pool of cores modelled as a
    single server of aggregate speed [ghz * cores].  Each packet costs its
    dataplane cycles plus fixed per-packet I/O cycles plus a share of the
    per-batch overhead ([per_batch_cycles / batch_size] — deeper batches
    amortize better, the ablation bench sweeps this).  A bounded RX ring
    tail-drops when the backlog exceeds [rx_ring] packets. *)

type config = {
  ghz : float;
  cores : int;
  batch_size : int;
  per_batch_cycles : int;
  per_packet_io_cycles : int;
  rx_ring : int;
}

val default_config : config
(** 2.6 GHz, 1 core, batch 32, 600-cycle batch overhead, 50-cycle I/O,
    4096-slot ring. *)

val ns_of_cycles : config -> int -> int
(** Wall-clock nanoseconds for [cycles] on this configuration. *)

val packet_service_cycles : config -> dataplane_cycles:int -> int
(** Total cycles a packet consumes including I/O and batch share. *)

type t

val create : Simnet.Engine.t -> ?config:config -> unit -> t

val admit : t -> cycles:int -> int
(** Enqueue a packet whose dataplane work costs [cycles] and return the
    instant, in ns, its service completes; the caller schedules its own
    completion there, and that completion calls {!complete} first.
    Returns [-1] if the RX ring is full: the packet is dropped, and the
    caller counts it.  Allocates nothing. *)

val complete : t -> unit
(** One admitted packet's service has completed: it leaves the RX ring
    and counts as processed. *)

val processed : t -> int
val busy_ns : t -> int
(** Total nanoseconds the server has been busy. *)

val config : t -> config
