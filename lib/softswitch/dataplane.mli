(** The dataplane abstraction: how a software switch classifies and
    processes packets, and what each packet costs in CPU cycles.

    The cycle figures below are the cost model every implementation draws
    from.  They are calibrated to the relative magnitudes reported for
    DPDK-era software switches (OVS-DPDK and ESwitch, the dataplane the
    HARMLESS demo used): what matters for the reproduction is the
    {e ordering and ratios} — specialized ≪ cached ≪ linear — not the
    absolute numbers of any particular Xeon. *)

module Cost : sig
  val parse : int
  (** Header parsing / fields extraction, per packet. *)

  val linear_per_entry : int
  (** Scanning one flow entry in a linear table walk. *)

  val table_base : int
  (** Fixed cost of consulting one flow table on the slow path. *)

  val emc_probe : int
  (** Probing the exact-match (microflow) cache. *)

  val emc_hit_extra : int
  (** Extra cost on an EMC hit (key compare + action fetch). *)

  val megaflow_probe : int
  (** One masked-table probe (tuple-space search tries masks in turn). *)

  val eswitch_template : int
  (** One specialized-template probe in the ESwitch-like dataplane. *)

end

(** A dataplane implementation: classification + execution + cycle
    accounting.  Instances are created from a shared {!Openflow.Pipeline.t}
    so the control plane (flow-mods) is common to all of them. *)
type t = {
  name : string;
  process : now_ns:int -> in_port:int -> Netpkt.Packet.t -> Openflow.Pipeline.result;
      (** Returns the forwarding decision, its cost in cycles set as
          its [cycles] field. *)
  stats : unit -> (string * int) list;
      (** Implementation-specific counters (cache hits, recompiles, ...). *)
  tier : unit -> string;
      (** Which classification tier served the most recent packet
          (["emc"] / ["megaflow"] / ["upcall"] for the OVS-like
          dataplane; a constant for single-tier implementations).
          Telemetry reads this right after [process] to annotate the
          packet's pipeline hop. *)
}

val cycles_of_result : Openflow.Pipeline.result -> int
(** Action-execution cycles implied by a result (per matched entry and
    emitted output). *)
