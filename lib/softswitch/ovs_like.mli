(** An OVS-style caching dataplane: an exact-match microflow cache (EMC)
    in front of a masked megaflow cache in front of the slow path.  No
    packet ever scans a cache: every lookup and insert is O(1).

    - {b EMC}: a fixed array of [emc_capacity] slots, allocated once.  A
      microflow's two candidate slots come from different bits of its
      seeded {!Netpkt.Packet.flow_hash} (OVS's hash-slot replacement,
      [EM_FLOW_HASH_SEGS = 2]); a hit needs the stored
      [(in_port, fields)] to equal the packet's.  An insert takes an
      empty candidate, else evicts the one a hash bit picks.  Every
      distinct microflow (e.g. every source port) needs a slot of its
      own.
    - {b Megaflow}: the header fields are first projected onto the union
      of fields actually tested by the installed rules (a conservative
      model of OVS's dynamically-computed megaflow masks), so traffic
      that differs only in untested fields shares an entry.  The table
      hashes every field of the projected key ([Hashtbl.hash] would stop
      after 10 values and chain keys that differ only in [ip_dst] or the
      L4 ports).  A full table is flushed, O(1) amortised over the
      inserts that filled it.
    - {b Slow path}: a full linear table walk, after which both caches
      are populated.

    Caches are invalidated wholesale whenever the pipeline changes —
    conservative but correct, and it makes the cost of control-plane
    churn visible in experiments. *)

type config = {
  emc_enabled : bool;
  emc_capacity : int;
  megaflow_capacity : int;
}

val default_config : config
(** EMC on, 8192 EMC entries, 65536 megaflows. *)

val create : ?config:config -> Openflow.Pipeline.t -> Dataplane.t
(** Stats exposed: ["emc_hits"], ["megaflow_hits"], ["upcalls"],
    ["invalidations"], ["packets"].
    @raise Invalid_argument if [megaflow_capacity < 1], or if
    [emc_capacity < 1] with the EMC enabled. *)
