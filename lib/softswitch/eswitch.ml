open Netpkt
open Openflow

(* A template's signature: one bit per field its entries test exactly.
   [residual] marks a match that needs the scan path. *)
let b_in_port = 1
let b_eth_dst = 2
let b_eth_src = 4
let b_eth_type = 8
let b_vlan_vid = 16
let b_vlan_pcp = 32
let b_ip_src = 64
let b_ip_dst = 128
let b_ip_proto = 256
let b_ip_tos = 512
let b_l4_src = 1024
let b_l4_dst = 2048
let residual = -1

(* Key components are {!Packet.Fields} ints: MACs as 48-bit ints, IPv4
   addresses as unsigned 32-bit ints, every other field as its value.
   Real values are never negative (rules testing a negative value go to
   the residual), so [untested], which is [Fields.absent], cannot equal
   one: a tested field the packet lacks matches no key. *)
let untested = Packet.Fields.absent

(* Set alongside the field bits by any test that is not an exact
   full-field test of a non-negative value. *)
let inexact = 4096

let int_bit bit = function
  | None -> 0
  | Some v -> if v >= 0 then bit else inexact

let mac_bit bit = function
  | None -> 0
  | Some mt ->
      if Mac_addr.equal mt.Of_match.mask Mac_addr.broadcast then bit else inexact

let prefix_bit bit = function
  | None -> 0
  | Some p -> if Ipv4_addr.Prefix.length p = 32 then bit else inexact

let signature (m : Of_match.t) =
  let sig_ =
    int_bit b_in_port m.Of_match.in_port
    lor mac_bit b_eth_dst m.Of_match.eth_dst
    lor mac_bit b_eth_src m.Of_match.eth_src
    lor int_bit b_eth_type m.Of_match.eth_type
    lor (match m.Of_match.vlan with
        | None -> 0
        | Some (Of_match.Vid v) -> if v >= 0 then b_vlan_vid else inexact
        | Some (Of_match.Absent | Of_match.Present) -> inexact)
    lor int_bit b_vlan_pcp m.Of_match.vlan_pcp
    lor prefix_bit b_ip_src m.Of_match.ip_src
    lor prefix_bit b_ip_dst m.Of_match.ip_dst
    lor int_bit b_ip_proto m.Of_match.ip_proto
    lor int_bit b_ip_tos m.Of_match.ip_tos
    lor int_bit b_l4_src m.Of_match.l4_src
    lor int_bit b_l4_dst m.Of_match.l4_dst
  in
  if sig_ land inexact <> 0 then residual else sig_

(* One exact entry of a template.  [hit] is the [Some entry] a lookup
   returns, built once at compile time so a hit allocates nothing. *)
type cand = {
  c_in_port : int;
  c_eth_dst : int;
  c_eth_src : int;
  c_eth_type : int;
  c_vlan_vid : int;
  c_vlan_pcp : int;
  c_ip_src : int;
  c_ip_dst : int;
  c_ip_proto : int;
  c_ip_tos : int;
  c_l4_src : int;
  c_l4_dst : int;
  order : int;
  hit : Flow_entry.t option;
}

let cand_of order (entry : Flow_entry.t) =
  let m = entry.Flow_entry.match_ in
  let int = function Some v -> v | None -> untested in
  let mac = function
    | Some mt -> Mac_addr.to_int mt.Of_match.value
    | None -> untested
  in
  let ip = function
    | Some p -> Ipv4_addr.to_int (Ipv4_addr.Prefix.base p)
    | None -> untested
  in
  {
    c_in_port = int m.Of_match.in_port;
    c_eth_dst = mac m.Of_match.eth_dst;
    c_eth_src = mac m.Of_match.eth_src;
    c_eth_type = int m.Of_match.eth_type;
    c_vlan_vid =
      (match m.Of_match.vlan with Some (Of_match.Vid v) -> v | _ -> untested);
    c_vlan_pcp = int m.Of_match.vlan_pcp;
    c_ip_src = ip m.Of_match.ip_src;
    c_ip_dst = ip m.Of_match.ip_dst;
    c_ip_proto = int m.Of_match.ip_proto;
    c_ip_tos = int m.Of_match.ip_tos;
    c_l4_src = int m.Of_match.l4_src;
    c_l4_dst = int m.Of_match.l4_dst;
    order;
    hit = Some entry;
  }

(* One int mix over all twelve components, shared by rules and packets. *)
let mix h v = (h + v) * 0x100000001b3

let hash12 a b c d e f g h i j k l =
  let x =
    mix (mix (mix (mix (mix (mix (mix (mix (mix (mix (mix (mix 0 a) b) c) d) e) f) g) h) i) j) k) l
  in
  let x = (x lxor (x lsr 31)) * 0x3f51afd7ed558ccd in
  x lxor (x lsr 29)

let hash_cand c =
  hash12 c.c_in_port c.c_eth_dst c.c_eth_src c.c_eth_type c.c_vlan_vid
    c.c_vlan_pcp c.c_ip_src c.c_ip_dst c.c_ip_proto c.c_ip_tos c.c_l4_src
    c.c_l4_dst

(* A packet's component as a template [sig_] sees it: [untested] for a
   field outside the template.  A packet whose fields match a candidate
   hashes like it. *)
let comp sig_ bit v = if sig_ land bit <> 0 then v else untested

let hash_fields sig_ ~in_port (f : Packet.Fields.t) =
  hash12
    (comp sig_ b_in_port in_port)
    (comp sig_ b_eth_dst f.Packet.Fields.eth_dst)
    (comp sig_ b_eth_src f.Packet.Fields.eth_src)
    (comp sig_ b_eth_type f.Packet.Fields.eth_type)
    (comp sig_ b_vlan_vid f.Packet.Fields.vlan_vid)
    (comp sig_ b_vlan_pcp f.Packet.Fields.vlan_pcp)
    (comp sig_ b_ip_src f.Packet.Fields.ip_src)
    (comp sig_ b_ip_dst f.Packet.Fields.ip_dst)
    (comp sig_ b_ip_proto f.Packet.Fields.ip_proto)
    (comp sig_ b_ip_tos f.Packet.Fields.ip_tos)
    (comp sig_ b_l4_src f.Packet.Fields.l4_src)
    (comp sig_ b_l4_dst f.Packet.Fields.l4_dst)

(* Field-wise hit check: every component the candidate tests equals the
   packet's. *)
let key_matches c ~in_port (f : Packet.Fields.t) =
  (c.c_in_port = untested || c.c_in_port = in_port)
  && (c.c_eth_dst = untested || c.c_eth_dst = f.Packet.Fields.eth_dst)
  && (c.c_eth_src = untested || c.c_eth_src = f.Packet.Fields.eth_src)
  && (c.c_eth_type = untested || c.c_eth_type = f.Packet.Fields.eth_type)
  && (c.c_vlan_vid = untested || c.c_vlan_vid = f.Packet.Fields.vlan_vid)
  && (c.c_vlan_pcp = untested || c.c_vlan_pcp = f.Packet.Fields.vlan_pcp)
  && (c.c_ip_src = untested || c.c_ip_src = f.Packet.Fields.ip_src)
  && (c.c_ip_dst = untested || c.c_ip_dst = f.Packet.Fields.ip_dst)
  && (c.c_ip_proto = untested || c.c_ip_proto = f.Packet.Fields.ip_proto)
  && (c.c_ip_tos = untested || c.c_ip_tos = f.Packet.Fields.ip_tos)
  && (c.c_l4_src = untested || c.c_l4_src = f.Packet.Fields.l4_src)
  && (c.c_l4_dst = untested || c.c_l4_dst = f.Packet.Fields.l4_dst)

(* A template's entries hashed into a power-of-two bucket array.  Two
   distinct keys of one template never match the same packet, and equal
   keys sit in table order, so a probe's first hit is the best one. *)
type template = {
  sig_ : int;
  mutable size : int;
  mutable buckets : cand list array;
}

type res = { r_order : int; r_match : Of_match.t; r_hit : Flow_entry.t option }

type compiled_table = {
  templates : template array;
  residual : res array; (* table order: best-first *)
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

(* Two passes over the entries: the first finds each entry's signature and
   counts each template's entries, so the second can size every bucket
   array once and fill it. *)
let compile_table table =
  let entries = Flow_table.entries table in
  let sigs = Array.make (Flow_table.size table) residual in
  let by_sig : (int, template) Hashtbl.t = Hashtbl.create 8 in
  let residuals = ref 0 in
  List.iteri
    (fun i entry ->
      let sig_ = signature entry.Flow_entry.match_ in
      sigs.(i) <- sig_;
      if sig_ = residual then incr residuals
      else
        match Hashtbl.find_opt by_sig sig_ with
        | Some t -> t.size <- t.size + 1
        | None -> Hashtbl.replace by_sig sig_ { sig_; size = 1; buckets = [||] })
    entries;
  let templates = Array.of_seq (Hashtbl.to_seq_values by_sig) in
  Array.iter (fun t -> t.buckets <- Array.make (pow2_at_least t.size 1) []) templates;
  let residual_arr =
    Array.make !residuals { r_order = max_int; r_match = Of_match.any; r_hit = None }
  in
  let next_residual = ref 0 in
  List.iteri
    (fun order entry ->
      let sig_ = sigs.(order) in
      if sig_ = residual then begin
        residual_arr.(!next_residual) <-
          { r_order = order; r_match = entry.Flow_entry.match_; r_hit = Some entry };
        incr next_residual
      end
      else
        let t = Hashtbl.find by_sig sig_ in
        let c = cand_of order entry in
        let b = hash_cand c land (Array.length t.buckets - 1) in
        t.buckets.(b) <- t.buckets.(b) @ [ c ])
    entries;
  { templates; residual = residual_arr }

(* Per-dataplane state.  [best_order]/[best] are the lookup's scratch:
   the best candidate so far, reset per lookup. *)
type state = {
  mutable compiled : compiled_table array;
  mutable seen_version : int;
  mutable recompiles : int;
  mutable packets : int;
  mutable probes : int;
  mutable residual_scans : int;
  mutable best_order : int;
  mutable best : Flow_entry.t option;
}

let consider st order hit =
  if order < st.best_order then begin
    st.best_order <- order;
    st.best <- hit
  end

let rec probe_bucket st ~in_port fields = function
  | [] -> ()
  | c :: rest ->
      if key_matches c ~in_port fields then consider st c.order c.hit
      else probe_bucket st ~in_port fields rest

let lookup st table_id ~in_port fields =
  let ct = st.compiled.(table_id) in
  st.best_order <- max_int;
  st.best <- None;
  let templates = ct.templates in
  for i = 0 to Array.length templates - 1 do
    let t = templates.(i) in
    st.probes <- st.probes + 1;
    probe_bucket st ~in_port fields
      t.buckets.(hash_fields t.sig_ ~in_port fields land (Array.length t.buckets - 1))
  done;
  let residual = ct.residual in
  for i = 0 to Array.length residual - 1 do
    let r = residual.(i) in
    st.residual_scans <- st.residual_scans + 1;
    if Of_match.matches r.r_match ~in_port fields then consider st r.r_order r.r_hit
  done;
  st.best

let create pipeline =
  let st =
    {
      compiled = [||];
      seen_version = -1;
      recompiles = 0;
      packets = 0;
      probes = 0;
      residual_scans = 0;
      best_order = max_int;
      best = None;
    }
  in
  let lookup table_id ~in_port fields = lookup st table_id ~in_port fields in
  let process ~now_ns ~in_port pkt =
    let v = Pipeline.version pipeline in
    if v <> st.seen_version then begin
      st.seen_version <- v;
      st.compiled <-
        Array.init (Pipeline.num_tables pipeline) (fun i ->
            compile_table (Pipeline.table pipeline i));
      st.recompiles <- st.recompiles + 1
    end;
    st.packets <- st.packets + 1;
    st.probes <- 0;
    st.residual_scans <- 0;
    let result = Pipeline.execute_with pipeline ~lookup ~now_ns ~in_port pkt in
    let cycles =
      Dataplane.Cost.parse
      + (st.probes * Dataplane.Cost.eswitch_template)
      + (st.residual_scans * Dataplane.Cost.linear_per_entry)
      + Dataplane.cycles_of_result result
    in
    (result, cycles)
  in
  let stats () =
    let template_count =
      Array.fold_left (fun acc ct -> acc + Array.length ct.templates) 0 st.compiled
    in
    [
      ("packets", st.packets);
      ("recompiles", st.recompiles);
      ("templates", template_count);
    ]
  in
  { Dataplane.name = "eswitch"; process; stats; tier = (fun () -> "specialized") }
