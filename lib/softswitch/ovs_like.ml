open Netpkt
open Openflow

type config = {
  emc_enabled : bool;
  emc_capacity : int;
  megaflow_capacity : int;
}

let default_config =
  { emc_enabled = true; emc_capacity = 8192; megaflow_capacity = 65536 }

(* Which fields the installed rules consult, at field granularity (IP
   prefixes keep their longest installed length). *)
type mask = {
  m_in_port : bool;
  m_eth_dst : bool;
  m_eth_src : bool;
  m_eth_type : bool;
  m_vlan : bool;
  m_vlan_pcp : bool;
  m_ip_src_len : int; (* 0 = not consulted *)
  m_ip_dst_len : int;
  m_ip_proto : bool;
  m_ip_tos : bool;
  m_l4_src : bool;
  m_l4_dst : bool;
}

let empty_mask =
  {
    m_in_port = false;
    m_eth_dst = false;
    m_eth_src = false;
    m_eth_type = false;
    m_vlan = false;
    m_vlan_pcp = false;
    m_ip_src_len = 0;
    m_ip_dst_len = 0;
    m_ip_proto = false;
    m_ip_tos = false;
    m_l4_src = false;
    m_l4_dst = false;
  }

let mask_of_pipeline pipeline =
  let mask = ref empty_mask in
  let note (m : Of_match.t) =
    let cur = !mask in
    mask :=
      {
        m_in_port = cur.m_in_port || Option.is_some m.Of_match.in_port;
        m_eth_dst = cur.m_eth_dst || Option.is_some m.Of_match.eth_dst;
        m_eth_src = cur.m_eth_src || Option.is_some m.Of_match.eth_src;
        m_eth_type = cur.m_eth_type || Option.is_some m.Of_match.eth_type;
        m_vlan = cur.m_vlan || Option.is_some m.Of_match.vlan;
        m_vlan_pcp = cur.m_vlan_pcp || Option.is_some m.Of_match.vlan_pcp;
        m_ip_src_len =
          (match m.Of_match.ip_src with
          | Some p -> Stdlib.max cur.m_ip_src_len (Ipv4_addr.Prefix.length p)
          | None -> cur.m_ip_src_len);
        m_ip_dst_len =
          (match m.Of_match.ip_dst with
          | Some p -> Stdlib.max cur.m_ip_dst_len (Ipv4_addr.Prefix.length p)
          | None -> cur.m_ip_dst_len);
        m_ip_proto = cur.m_ip_proto || Option.is_some m.Of_match.ip_proto;
        m_ip_tos = cur.m_ip_tos || Option.is_some m.Of_match.ip_tos;
        m_l4_src = cur.m_l4_src || Option.is_some m.Of_match.l4_src;
        m_l4_dst = cur.m_l4_dst || Option.is_some m.Of_match.l4_dst;
      }
  in
  for i = 0 to Pipeline.num_tables pipeline - 1 do
    List.iter
      (fun e -> note e.Flow_entry.match_)
      (Flow_table.entries (Pipeline.table pipeline i))
  done;
  !mask

(* Fields outside the mask read [Fields.absent]; an IP address keeps the
   top [len] bits of its unsigned 32-bit int. *)
let keep m v = if m then v else Packet.Fields.absent

let ip_masked len v =
  if len > 0 && v <> Packet.Fields.absent then
    v land ((0xffff_ffff lsl (32 - len)) land 0xffff_ffff)
  else Packet.Fields.absent

let project mask ~in_port (f : Packet.Fields.t) =
  ( (if mask.m_in_port then in_port else -1),
    {
      Packet.Fields.eth_dst = keep mask.m_eth_dst f.Packet.Fields.eth_dst;
      eth_src = keep mask.m_eth_src f.Packet.Fields.eth_src;
      eth_type = keep mask.m_eth_type f.Packet.Fields.eth_type;
      vlan_vid = keep mask.m_vlan f.Packet.Fields.vlan_vid;
      vlan_pcp = keep mask.m_vlan_pcp f.Packet.Fields.vlan_pcp;
      ip_src = ip_masked mask.m_ip_src_len f.Packet.Fields.ip_src;
      ip_dst = ip_masked mask.m_ip_dst_len f.Packet.Fields.ip_dst;
      ip_proto = keep mask.m_ip_proto f.Packet.Fields.ip_proto;
      ip_tos = keep mask.m_ip_tos f.Packet.Fields.ip_tos;
      l4_src = keep mask.m_l4_src f.Packet.Fields.l4_src;
      l4_dst = keep mask.m_l4_dst f.Packet.Fields.l4_dst;
    } )

(* A cached classification: the chain of entries the slow path matched,
   per table, each held as the option a lookup returns.  [lookup] is
   built once, when the slow path caches the chain, so a replay
   allocates no closure and no option. *)
type cached = { lookup : int -> in_port:int -> Packet.Fields.t -> Flow_entry.t option }

let rec find_hit table_id = function
  | [] -> None
  | (id, hit) :: rest -> if id = table_id then hit else find_hit table_id rest

let cached_of by_table =
  { lookup = (fun table_id ~in_port:_ _ -> find_hit table_id by_table) }

(* Megaflow keys hashed over every field: [Hashtbl.hash] stops after 10
   meaningful values, which would leave the L4 ports out of the hash and
   chain every E5 megaflow together.  The projected key holds 12 ints. *)
module Megaflow = Hashtbl.Make (struct
  type t = int * Packet.Fields.t

  let equal = ( = )
  let hash key = Hashtbl.hash_param 32 64 key
end)

(* One EMC slot: the full microflow key and its classification. *)
type emc_entry = { e_in_port : int; e_fields : Packet.Fields.t; e_cached : cached }

(* The two candidate slots of a microflow come from disjoint 30-bit
   segments of its flow hash, and bit 60 picks the victim when both are
   taken: OVS's hash-slot replacement with [EM_FLOW_HASH_SEGS = 2]. *)
let emc_slot capacity h seg = ((h lsr (30 * seg)) land 0x3FFFFFFF) mod capacity

let create ?(config = default_config) pipeline =
  if config.megaflow_capacity < 1 then
    invalid_arg "Ovs_like.create: megaflow_capacity must be at least 1";
  if config.emc_enabled && config.emc_capacity < 1 then
    invalid_arg "Ovs_like.create: emc_capacity must be at least 1";
  let emc_capacity = if config.emc_enabled then config.emc_capacity else 0 in
  let emc : emc_entry option array = Array.make emc_capacity None in
  let megaflow : cached Megaflow.t = Megaflow.create 1024 in
  let mask = ref (mask_of_pipeline pipeline) in
  let seen_version = ref (Pipeline.version pipeline) in
  let emc_hits = ref 0 and megaflow_hits = ref 0 and upcalls = ref 0 in
  let invalidations = ref 0 and packets = ref 0 in
  let last_tier = ref "upcall" in
  let check_version () =
    let v = Pipeline.version pipeline in
    if v <> !seen_version then begin
      seen_version := v;
      Array.fill emc 0 emc_capacity None;
      Megaflow.reset megaflow;
      mask := mask_of_pipeline pipeline;
      incr invalidations
    end
  in
  let emc_matches ~in_port fields = function
    | Some e -> e.e_in_port = in_port && e.e_fields = fields
    | None -> false
  in
  let emc_find ~hash ~in_port fields =
    let a = emc.(emc_slot emc_capacity hash 0) in
    if emc_matches ~in_port fields a then a
    else
      let b = emc.(emc_slot emc_capacity hash 1) in
      if emc_matches ~in_port fields b then b else None
  in
  (* Inserts only follow an [emc_find] miss, so the key holds neither
     slot: take an empty one, else evict by hash bit. *)
  let emc_insert ~hash ~in_port fields cached =
    let a = emc_slot emc_capacity hash 0 and b = emc_slot emc_capacity hash 1 in
    let slot =
      if Option.is_none emc.(a) then a
      else if Option.is_none emc.(b) then b
      else if (hash lsr 60) land 1 = 0 then a
      else b
    in
    emc.(slot) <- Some { e_in_port = in_port; e_fields = fields; e_cached = cached }
  in
  (* Flushing a full megaflow table is O(1) amortised over the inserts
     that filled it; no workload at the default size reaches it. *)
  let megaflow_insert key cached =
    if Megaflow.length megaflow >= config.megaflow_capacity then
      Megaflow.reset megaflow;
    Megaflow.replace megaflow key cached
  in
  let slow_path ~now_ns ~hash ~in_port ~cycles pkt fields =
    incr upcalls;
    let scanned = ref 0 in
    let tables_visited = ref 0 in
    let matched_tables = ref [] in
    let lookup table_id ~in_port fields =
      incr tables_visited;
      let entry, n =
        Flow_table.lookup_scan (Pipeline.table pipeline table_id) ~in_port fields
      in
      scanned := !scanned + n;
      (match entry with
      | Some _ -> matched_tables := (table_id, entry) :: !matched_tables
      | None -> ());
      entry
    in
    let result = Pipeline.execute_with pipeline ~lookup ~now_ns ~in_port pkt in
    Pipeline.set_cycles result
      (cycles
      + (!tables_visited * Dataplane.Cost.table_base)
      + (!scanned * Dataplane.Cost.linear_per_entry)
      + Dataplane.cycles_of_result result);
    (* Populate caches only for successful classifications; misses go to
       the controller and must keep doing so. *)
    if not result.Pipeline.table_miss then begin
      let cached = cached_of (List.rev !matched_tables) in
      if config.emc_enabled then emc_insert ~hash ~in_port fields cached;
      megaflow_insert (project !mask ~in_port fields) cached
    end;
    result
  in
  let replay cached ~now_ns ~in_port pkt ~cycles =
    let result =
      Pipeline.execute_with pipeline ~lookup:cached.lookup ~now_ns ~in_port pkt
    in
    Pipeline.set_cycles result (cycles + Dataplane.cycles_of_result result);
    result
  in
  let process ~now_ns ~in_port pkt =
    check_version ();
    incr packets;
    let fields = Packet.Fields.of_packet pkt in
    let base = Dataplane.Cost.parse in
    let hash = if config.emc_enabled then Packet.flow_hash ~seed:in_port pkt else 0 in
    let from_emc = if config.emc_enabled then emc_find ~hash ~in_port fields else None in
    match from_emc with
    | Some { e_cached = cached; _ } ->
        incr emc_hits;
        last_tier := "emc";
        replay cached ~now_ns ~in_port pkt
          ~cycles:(base + Dataplane.Cost.emc_probe + Dataplane.Cost.emc_hit_extra)
    | None -> (
        let emc_miss_cost = if config.emc_enabled then Dataplane.Cost.emc_probe else 0 in
        let mkey = project !mask ~in_port fields in
        match Megaflow.find_opt megaflow mkey with
        | Some cached ->
            incr megaflow_hits;
            last_tier := "megaflow";
            if config.emc_enabled then emc_insert ~hash ~in_port fields cached;
            replay cached ~now_ns ~in_port pkt
              ~cycles:(base + emc_miss_cost + Dataplane.Cost.megaflow_probe)
        | None ->
            last_tier := "upcall";
            slow_path ~now_ns ~hash ~in_port pkt fields
              ~cycles:(base + emc_miss_cost + Dataplane.Cost.megaflow_probe))
  in
  let stats () =
    [
      ("packets", !packets);
      ("emc_hits", !emc_hits);
      ("megaflow_hits", !megaflow_hits);
      ("upcalls", !upcalls);
      ("invalidations", !invalidations);
    ]
  in
  let name = if config.emc_enabled then "ovs" else "ovs-noemc" in
  { Dataplane.name; process; stats; tier = (fun () -> !last_tier) }
