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

let mask_of_pipeline pipeline =
  let in_port = ref false and eth_dst = ref false and eth_src = ref false in
  let eth_type = ref false and vlan = ref false and vlan_pcp = ref false in
  let ip_src_len = ref 0 and ip_dst_len = ref 0 and ip_proto = ref false in
  let ip_tos = ref false and l4_src = ref false and l4_dst = ref false in
  let note flag field = if Option.is_some field then flag := true in
  let note_len len = function
    | Some p -> len := Stdlib.max !len (Ipv4_addr.Prefix.length p)
    | None -> ()
  in
  let note_entry e =
    let m = e.Flow_entry.match_ in
    note in_port m.Of_match.in_port;
    note eth_dst m.Of_match.eth_dst;
    note eth_src m.Of_match.eth_src;
    note eth_type m.Of_match.eth_type;
    note vlan m.Of_match.vlan;
    note vlan_pcp m.Of_match.vlan_pcp;
    note_len ip_src_len m.Of_match.ip_src;
    note_len ip_dst_len m.Of_match.ip_dst;
    note ip_proto m.Of_match.ip_proto;
    note ip_tos m.Of_match.ip_tos;
    note l4_src m.Of_match.l4_src;
    note l4_dst m.Of_match.l4_dst
  in
  for i = 0 to Pipeline.num_tables pipeline - 1 do
    List.iter note_entry (Flow_table.entries (Pipeline.table pipeline i))
  done;
  {
    m_in_port = !in_port;
    m_eth_dst = !eth_dst;
    m_eth_src = !eth_src;
    m_eth_type = !eth_type;
    m_vlan = !vlan;
    m_vlan_pcp = !vlan_pcp;
    m_ip_src_len = !ip_src_len;
    m_ip_dst_len = !ip_dst_len;
    m_ip_proto = !ip_proto;
    m_ip_tos = !ip_tos;
    m_l4_src = !l4_src;
    m_l4_dst = !l4_dst;
  }

(* Fields outside the mask read [Fields.absent]; an IP address keeps the
   top [len] bits of its unsigned 32-bit int. *)
let keep m v = if m then v else Packet.Fields.absent

let ip_masked len v =
  if len > 0 && v <> Packet.Fields.absent then
    v land ((0xffff_ffff lsl (32 - len)) land 0xffff_ffff)
  else Packet.Fields.absent

(* A megaflow key is 12 ints: the in_port ([-1] when no rule tests it)
   and the 11 header fields, each projected onto the mask.  A probe
   projects into one scratch key in place; only an insert copies it. *)
let key_length = 12

let fill_key (key : int array) mask ~in_port (f : Packet.Fields.t) =
  key.(0) <- (if mask.m_in_port then in_port else -1);
  key.(1) <- keep mask.m_eth_dst f.eth_dst;
  key.(2) <- keep mask.m_eth_src f.eth_src;
  key.(3) <- keep mask.m_eth_type f.eth_type;
  key.(4) <- keep mask.m_vlan f.vlan_vid;
  key.(5) <- keep mask.m_vlan_pcp f.vlan_pcp;
  key.(6) <- ip_masked mask.m_ip_src_len f.ip_src;
  key.(7) <- ip_masked mask.m_ip_dst_len f.ip_dst;
  key.(8) <- keep mask.m_ip_proto f.ip_proto;
  key.(9) <- keep mask.m_ip_tos f.ip_tos;
  key.(10) <- keep mask.m_l4_src f.l4_src;
  key.(11) <- keep mask.m_l4_dst f.l4_dst

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

(* Megaflow keys compare and hash int by int, every field counted:
   [Hashtbl.hash] stops after 10 meaningful values, which would leave
   the L4 ports out of the hash and chain every E5 megaflow together. *)
module Megaflow = Hashtbl.Make (struct
  type t = int array

  let rec equal_from (a : int array) (b : int array) i =
    i = key_length || (a.(i) = b.(i) && equal_from a b (i + 1))

  let equal a b = equal_from a b 0

  (* Multiply-xorshift per field; the table indexes by the low bits, so
     the last shift folds the high bits down. *)
  let rec hash_from (k : int array) i h =
    if i = key_length then h lxor (h lsr 31)
    else
      let h = (h lxor k.(i)) * 0x2545F4914F6CDD1D in
      hash_from k (i + 1) (h lxor (h lsr 29))

  let hash k = hash_from k 0 0
end)

(* One EMC slot: the microflow key as plain ints and its classification,
   stamped with the pipeline version it was filled under.  A slot is
   live only while its stamp is the current version, so an invalidation
   empties every slot without touching one.  [empty] fills every slot
   at [create]; a slot gets storage of its own the first time it fills
   and is overwritten in place after that, so a refill stores ints and
   one pointer and allocates nothing. *)
type slot = {
  mutable s_version : int;
  mutable s_in_port : int;
  mutable s_eth_dst : int;
  mutable s_eth_src : int;
  mutable s_eth_type : int;
  mutable s_vlan_vid : int;
  mutable s_vlan_pcp : int;
  mutable s_ip_src : int;
  mutable s_ip_dst : int;
  mutable s_ip_proto : int;
  mutable s_ip_tos : int;
  mutable s_l4_src : int;
  mutable s_l4_dst : int;
  mutable s_cached : cached;
}

(* Never live: pipeline versions start at 0. *)
let empty =
  {
    s_version = -1;
    s_in_port = 0;
    s_eth_dst = 0;
    s_eth_src = 0;
    s_eth_type = 0;
    s_vlan_vid = 0;
    s_vlan_pcp = 0;
    s_ip_src = 0;
    s_ip_dst = 0;
    s_ip_proto = 0;
    s_ip_tos = 0;
    s_l4_src = 0;
    s_l4_dst = 0;
    s_cached = { lookup = (fun _ ~in_port:_ _ -> None) };
  }

let holds s ~version ~in_port (f : Packet.Fields.t) =
  s.s_version = version && s.s_in_port = in_port && s.s_eth_dst = f.eth_dst
  && s.s_eth_src = f.eth_src && s.s_eth_type = f.eth_type
  && s.s_vlan_vid = f.vlan_vid && s.s_vlan_pcp = f.vlan_pcp
  && s.s_ip_src = f.ip_src && s.s_ip_dst = f.ip_dst && s.s_ip_proto = f.ip_proto
  && s.s_ip_tos = f.ip_tos && s.s_l4_src = f.l4_src && s.s_l4_dst = f.l4_dst

let fill s ~version ~in_port (f : Packet.Fields.t) cached =
  s.s_version <- version;
  s.s_in_port <- in_port;
  s.s_eth_dst <- f.eth_dst;
  s.s_eth_src <- f.eth_src;
  s.s_eth_type <- f.eth_type;
  s.s_vlan_vid <- f.vlan_vid;
  s.s_vlan_pcp <- f.vlan_pcp;
  s.s_ip_src <- f.ip_src;
  s.s_ip_dst <- f.ip_dst;
  s.s_ip_proto <- f.ip_proto;
  s.s_ip_tos <- f.ip_tos;
  s.s_l4_src <- f.l4_src;
  s.s_l4_dst <- f.l4_dst;
  s.s_cached <- cached

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
  let emc = Array.make emc_capacity empty in
  let megaflow : cached Megaflow.t = Megaflow.create 1024 in
  let key = Array.make key_length 0 in
  let mask = ref (mask_of_pipeline pipeline) in
  let seen_version = ref (Pipeline.version pipeline) in
  let emc_hits = ref 0 and megaflow_hits = ref 0 and upcalls = ref 0 in
  let invalidations = ref 0 and packets = ref 0 in
  let last_tier = ref "upcall" in
  let check_version () =
    let v = Pipeline.version pipeline in
    if v <> !seen_version then begin
      seen_version := v;
      Megaflow.reset megaflow;
      mask := mask_of_pipeline pipeline;
      incr invalidations
    end
  in
  (* The live slot holding the microflow, else [empty]. *)
  let emc_find ~hash ~in_port fields =
    let version = !seen_version in
    let a = emc.(emc_slot emc_capacity hash 0) in
    if holds a ~version ~in_port fields then a
    else
      let b = emc.(emc_slot emc_capacity hash 1) in
      if holds b ~version ~in_port fields then b else empty
  in
  (* Inserts only follow an [emc_find] miss, so the key holds neither
     slot: take an empty one, else evict by hash bit. *)
  let emc_insert ~hash ~in_port fields cached =
    let version = !seen_version in
    let a = emc_slot emc_capacity hash 0 and b = emc_slot emc_capacity hash 1 in
    let i =
      if emc.(a).s_version <> version then a
      else if emc.(b).s_version <> version then b
      else if (hash lsr 60) land 1 = 0 then a
      else b
    in
    if emc.(i) == empty then emc.(i) <- { empty with s_version = version };
    fill emc.(i) ~version ~in_port fields cached
  in
  (* Flushing a full megaflow table is O(1) amortised over the inserts
     that filled it; no workload at the default size reaches it.  [key]
     holds the projection the missed probe was made with. *)
  let megaflow_insert cached =
    if Megaflow.length megaflow >= config.megaflow_capacity then
      Megaflow.reset megaflow;
    Megaflow.replace megaflow (Array.copy key) cached
  in
  let slow_path ~now_ns ~hash ~in_port ~cycles pkt fields =
    incr upcalls;
    let scanned = ref 0 in
    let tables_visited = ref 0 in
    let matched_tables = ref [] in
    let lookup table_id ~in_port fields =
      incr tables_visited;
      let entry =
        Flow_table.lookup_scan (Pipeline.table pipeline table_id) ~scanned ~in_port
          fields
      in
      (match entry with
      | Some _ -> matched_tables := (table_id, entry) :: !matched_tables
      | None -> ());
      entry
    in
    let result = Pipeline.execute_with pipeline ~lookup ~now_ns ~in_port pkt fields in
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
      megaflow_insert cached
    end;
    result
  in
  let replay cached ~now_ns ~in_port pkt fields ~cycles =
    let result =
      Pipeline.execute_with pipeline ~lookup:cached.lookup ~now_ns ~in_port pkt fields
    in
    Pipeline.set_cycles result (cycles + Dataplane.cycles_of_result result);
    result
  in
  (* One fields view serves the EMC key, the megaflow key and the pass. *)
  let process ~now_ns ~in_port pkt =
    check_version ();
    incr packets;
    let fields = Packet.Fields.of_packet pkt in
    let base = Dataplane.Cost.parse in
    let hash = if config.emc_enabled then Packet.flow_hash ~seed:in_port pkt else 0 in
    let hit = if config.emc_enabled then emc_find ~hash ~in_port fields else empty in
    if hit != empty then begin
      incr emc_hits;
      last_tier := "emc";
      replay hit.s_cached ~now_ns ~in_port pkt fields
        ~cycles:(base + Dataplane.Cost.emc_probe + Dataplane.Cost.emc_hit_extra)
    end
    else
      let cycles =
        base
        + (if config.emc_enabled then Dataplane.Cost.emc_probe else 0)
        + Dataplane.Cost.megaflow_probe
      in
      fill_key key !mask ~in_port fields;
      match Megaflow.find megaflow key with
      | cached ->
          incr megaflow_hits;
          last_tier := "megaflow";
          if config.emc_enabled then emc_insert ~hash ~in_port fields cached;
          replay cached ~now_ns ~in_port pkt fields ~cycles
      | exception Not_found ->
          last_tier := "upcall";
          slow_path ~now_ns ~hash ~in_port pkt fields ~cycles
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
