module Cost = struct
  let parse = 20
  let linear_per_entry = 12
  let table_base = 40
  let emc_probe = 15
  let emc_hit_extra = 95
  let megaflow_probe = 80
  let eswitch_template = 28
  let per_action = 10
end

type t = {
  name : string;
  process : now_ns:int -> in_port:int -> Netpkt.Packet.t -> Openflow.Pipeline.result;
  stats : unit -> (string * int) list;
  tier : unit -> string;
      (* which classification tier served the most recent packet —
         ("emc" / "megaflow" / "upcall" for the OVS-like dataplane,
         a constant for single-tier ones); feeds per-hop traces. *)
}

let cycles_of_result (r : Openflow.Pipeline.result) =
  Cost.per_action * (List.length r.Openflow.Pipeline.matched
                     + List.length r.Openflow.Pipeline.outputs)
