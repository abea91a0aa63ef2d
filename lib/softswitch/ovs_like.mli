(** An OVS-style caching dataplane: an exact-match microflow cache (EMC)
    in front of a masked megaflow cache in front of the slow path.  No
    packet ever scans a cache: every lookup and insert is O(1).

    - {b EMC}: an array of [emc_capacity] slots.  A slot holds the
      microflow's in_port and its 11 header fields as plain ints, plus
      its classification; it gets storage the first time it fills and is
      overwritten in place after that.  A microflow's two candidate
      slots come from different bits of its seeded
      {!Netpkt.Packet.flow_hash} (OVS's hash-slot replacement,
      [EM_FLOW_HASH_SEGS = 2]); a hit compares the stored ints with the
      packet's field by field.  An insert takes an empty candidate, else
      evicts the one a hash bit picks.  Every distinct microflow (e.g.
      every source port) needs a slot of its own.
    - {b Megaflow}: the header fields are first projected onto the union
      of fields actually tested by the installed rules (a conservative
      model of OVS's dynamically-computed megaflow masks), so traffic
      that differs only in untested fields shares an entry.  A probe
      projects into one scratch key of 12 ints and hashes every one of
      them ([Hashtbl.hash] would stop after 10 values and chain keys that
      differ only in [ip_dst] or the L4 ports); only an insert copies the
      key.  A full table is flushed, O(1) amortised over the inserts that
      filled it.
    - {b Slow path}: a full linear table walk, after which both caches
      are populated.

    The packet's one {!Netpkt.Packet.Fields.t} view serves both cache
    keys and the pipeline pass, so an EMC hit, and a megaflow hit that
    refills an EMC slot, allocate what an ESwitch pass allocates.

    Caches are invalidated wholesale whenever the pipeline changes —
    conservative but correct, and it makes the cost of control-plane
    churn visible in experiments.  The megaflow table is emptied; an EMC
    slot is stamped with the pipeline version it was filled under, so a
    new version empties every slot without touching one. *)

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
