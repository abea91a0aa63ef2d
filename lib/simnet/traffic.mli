(** Traffic generation: open-loop packet streams with configurable arrival
    processes and frame-size distributions, plus simple request workloads.
    All streams are driven by the engine and stop at a given instant, so
    experiments are fully deterministic given a seed. *)

(** Packet arrival process. *)
type arrival =
  | Cbr of float      (** constant bit-pattern: exactly [rate] packets/s *)
  | Poisson of float  (** exponential inter-arrivals with mean rate pkts/s *)

(** Frame-size distribution; sizes are wire sizes (with FCS), clamped to
    the 64-byte Ethernet minimum. *)
type size =
  | Fixed of int
  | Uniform of int * int
  | Imix  (** the classic 7:4:1 mix of 64 / 594 / 1518-byte frames *)

type stream

val udp_stream :
  rng:Rng.t ->
  src:Host.t ->
  dst_mac:Netpkt.Mac_addr.t ->
  dst_ip:Netpkt.Ipv4_addr.t ->
  ?src_port:int ->
  ?dst_port:int ->
  ?start:Sim_time.t ->
  stop:Sim_time.t ->
  arrival ->
  size ->
  unit ->
  stream
(** Timestamped UDP probes from [src] to the destination; receivers
    accumulate one-way latency (see {!Host.latency}).  Defaults:
    ports 10000→20000, start at the current engine time. *)

val sent : stream -> int
(** Packets handed to the NIC so far. *)

val multi_udp_stream :
  rng:Rng.t ->
  src:Host.t ->
  dests:(Netpkt.Mac_addr.t * Netpkt.Ipv4_addr.t) array ->
  ?skew:float ->
  ?dst_port:int ->
  ?start:Sim_time.t ->
  stop:Sim_time.t ->
  arrival ->
  size ->
  unit ->
  stream
(** Like {!udp_stream} but each packet picks a destination from [dests]:
    zipf-distributed with [skew] (default 0 = uniform).  The UDP source
    port also varies per packet so flow-level caches see many flows. *)
