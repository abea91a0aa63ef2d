(** The catalogue of dataplane implementations, by name — one place the
    differential checker, the benchmarks and the CLI all draw from, so a
    new backend is automatically fuzzed against the oracle the moment it
    is listed here.

    ["ovs-tiny-cache"] is the OVS-like dataplane with deliberately tiny
    EMC/megaflow capacities: functionally identical to ["ovs"], but every
    few packets evict cache entries, which keeps the eviction and
    repopulation paths honest under differential testing. *)

val all : (string * (Openflow.Pipeline.t -> Dataplane.t)) list
(** Constructor per backend.  Each call builds a fresh dataplane over the
    given (caller-owned) pipeline. *)

val find : string -> (Openflow.Pipeline.t -> Dataplane.t) option
