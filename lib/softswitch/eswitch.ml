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

(* An entry's place in its table: (priority descending, add sequence
   number ascending) is exactly the table's list order. *)
let[@inline] precedes (prio : int) (seq : int) prio' seq' =
  prio > prio' || (prio = prio' && seq < seq')

let before (a : Flow_entry.t) (b : Flow_entry.t) =
  precedes a.Flow_entry.priority a.Flow_entry.seq b.Flow_entry.priority b.Flow_entry.seq

(* One exact entry of a template, keyed by the entry's place in its table
   as of the sync that inserted it.  [hit] is the [Some entry] a lookup
   returns, built once at sync time so a hit allocates nothing. *)
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
  prio : int;
  seq : int;
  hit : Flow_entry.t option;
}

let int_c = function Some v -> v | None -> untested

let mac_c = function
  | Some mt -> Mac_addr.to_int mt.Of_match.value
  | None -> untested

let ip_c = function
  | Some p -> Ipv4_addr.to_int (Ipv4_addr.Prefix.base p)
  | None -> untested

let vid_c = function Some (Of_match.Vid v) -> v | _ -> untested

let cand_of (entry : Flow_entry.t) =
  let m = entry.Flow_entry.match_ in
  {
    c_in_port = int_c m.Of_match.in_port;
    c_eth_dst = mac_c m.Of_match.eth_dst;
    c_eth_src = mac_c m.Of_match.eth_src;
    c_eth_type = int_c m.Of_match.eth_type;
    c_vlan_vid = vid_c m.Of_match.vlan;
    c_vlan_pcp = int_c m.Of_match.vlan_pcp;
    c_ip_src = ip_c m.Of_match.ip_src;
    c_ip_dst = ip_c m.Of_match.ip_dst;
    c_ip_proto = int_c m.Of_match.ip_proto;
    c_ip_tos = int_c m.Of_match.ip_tos;
    c_l4_src = int_c m.Of_match.l4_src;
    c_l4_dst = int_c m.Of_match.l4_dst;
    prio = entry.Flow_entry.priority;
    seq = entry.Flow_entry.seq;
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

(* [hash_cand (cand_of entry)] without building the candidate. *)
let hash_match (m : Of_match.t) =
  hash12 (int_c m.Of_match.in_port) (mac_c m.Of_match.eth_dst)
    (mac_c m.Of_match.eth_src) (int_c m.Of_match.eth_type)
    (vid_c m.Of_match.vlan) (int_c m.Of_match.vlan_pcp)
    (ip_c m.Of_match.ip_src) (ip_c m.Of_match.ip_dst)
    (int_c m.Of_match.ip_proto) (int_c m.Of_match.ip_tos)
    (int_c m.Of_match.l4_src) (int_c m.Of_match.l4_dst)

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
   distinct keys of one template never match the same packet, and each
   bucket is kept in table order, so a probe's first hit is the best one. *)
type template = {
  sig_ : int;
  mutable size : int;
  mutable buckets : cand list array;
}

type res = {
  r_prio : int;
  r_seq : int;
  r_match : Of_match.t;
  r_hit : Flow_entry.t option;
}

(* One table as ESwitch last saw it.  [entries] is the table's entry list
   at that sync (shared with the table, not copied), [max_seq] the
   highest add sequence number among all entries synced so far: an entry
   of [entries] stamped above it has been re-added since. *)
type compiled_table = {
  mutable version : int;
  mutable entries : Flow_entry.t list;
  mutable max_seq : int;
  mutable templates : template array;
  mutable residual : res array;
  mutable residual_dirty : bool;
}

let empty_table () =
  {
    version = -1;
    entries = [];
    max_seq = -1;
    templates = [||];
    residual = [||];
    residual_dirty = false;
  }

let find_template ct sig_ =
  let rec go i =
    if i = Array.length ct.templates then -1
    else if ct.templates.(i).sig_ = sig_ then i
    else go (i + 1)
  in
  go 0

let bucket t hash = hash land (Array.length t.buckets - 1)

(* Buckets stay in table order: a candidate goes after every one that
   precedes it. *)
let rec insert_cand c = function
  | [] -> [ c ]
  | c' :: rest as all ->
      if precedes c.prio c.seq c'.prio c'.seq then c :: all
      else c' :: insert_cand c rest

let rec remove_cand entry = function
  | [] -> []
  | c :: rest -> (
      match c.hit with
      | Some e when e == entry -> rest
      | Some _ | None -> c :: remove_cand entry rest)

let grow t =
  let old = t.buckets in
  t.buckets <- Array.make (2 * Array.length old) [];
  Array.iter
    (List.iter (fun c ->
         let b = bucket t (hash_cand c) in
         t.buckets.(b) <- insert_cand c t.buckets.(b)))
    old

let depart ct (entry : Flow_entry.t) =
  let sig_ = signature entry.Flow_entry.match_ in
  if sig_ = residual then ct.residual_dirty <- true
  else begin
    let t = ct.templates.(find_template ct sig_) in
    let b = bucket t (hash_match entry.Flow_entry.match_) in
    t.buckets.(b) <- remove_cand entry t.buckets.(b);
    t.size <- t.size - 1
  end

let arrive ct (entry : Flow_entry.t) =
  if entry.Flow_entry.seq > ct.max_seq then ct.max_seq <- entry.Flow_entry.seq;
  let sig_ = signature entry.Flow_entry.match_ in
  if sig_ = residual then ct.residual_dirty <- true
  else begin
    let i = find_template ct sig_ in
    let t =
      if i >= 0 then ct.templates.(i)
      else begin
        let t = { sig_; size = 0; buckets = [| [] |] } in
        ct.templates <- Array.append ct.templates [| t |];
        t
      end
    in
    t.size <- t.size + 1;
    if t.size > Array.length t.buckets then grow t;
    let c = cand_of entry in
    let b = bucket t (hash_cand c) in
    t.buckets.(b) <- insert_cand c t.buckets.(b)
  end

(* One merge walk over the entries as last synced ([old]) and as they are
   now ([cur]), both in table order.  An entry in both lists, physically,
   is unchanged; an old entry stamped above [restamped_above] was re-added
   since and sits elsewhere in [cur].  The walk stops where the two lists
   share their tail. *)
let rec diff ct ~restamped_above old cur =
  if old != cur then
    match (old, cur) with
    | [], [] -> ()
    | o :: old', _ when o.Flow_entry.seq > restamped_above ->
        depart ct o;
        diff ct ~restamped_above old' cur
    | o :: old', [] ->
        depart ct o;
        diff ct ~restamped_above old' cur
    | [], n :: cur' ->
        arrive ct n;
        diff ct ~restamped_above old cur'
    | o :: old', n :: cur' ->
        if o == n then diff ct ~restamped_above old' cur'
        else if before o n then begin
          depart ct o;
          diff ct ~restamped_above old' cur
        end
        else if before n o then begin
          arrive ct n;
          diff ct ~restamped_above old cur'
        end
        else begin
          (* a modified entry: a new record with the same place *)
          depart ct o;
          arrive ct n;
          diff ct ~restamped_above old' cur'
        end

let rebuild_residual ct entries =
  let rs =
    List.filter_map
      (fun (e : Flow_entry.t) ->
        if signature e.Flow_entry.match_ = residual then
          Some
            {
              r_prio = e.Flow_entry.priority;
              r_seq = e.Flow_entry.seq;
              r_match = e.Flow_entry.match_;
              r_hit = Some e;
            }
        else None)
      entries
  in
  ct.residual <- Array.of_list rs;
  ct.residual_dirty <- false

(* Bring [ct] up to date with [table] at a cost in the entries that
   changed.  The first sync runs from the empty table. *)
let sync ct table =
  let v = Flow_table.version table in
  if v <> ct.version then begin
    let cur = Flow_table.entries table in
    diff ct ~restamped_above:ct.max_seq ct.entries cur;
    ct.version <- v;
    ct.entries <- cur;
    if Array.exists (fun t -> t.size = 0) ct.templates then
      ct.templates <-
        Array.of_seq (Seq.filter (fun t -> t.size > 0) (Array.to_seq ct.templates));
    if ct.residual_dirty then rebuild_residual ct cur
  end

type state = {
  compiled : compiled_table array;
  mutable seen_version : int;
  mutable recompiles : int;
  mutable packets : int;
  mutable probes : int;
  mutable residual_scans : int;
}

(* The best candidate so far travels as the arguments [prio], [seq] and
   [best], starting from (min_int, max_int, None), so a lookup stores
   nothing.  A bucket's first hit is its best, so the probe moves on to
   the next template from there. *)
let rec probe_templates st templates i ~in_port fields residual prio seq best =
  if i = Array.length templates then
    scan_residual st residual 0 ~in_port fields prio seq best
  else begin
    let t = templates.(i) in
    st.probes <- st.probes + 1;
    probe_bucket st templates i ~in_port fields residual prio seq best
      t.buckets.(bucket t (hash_fields t.sig_ ~in_port fields))
  end

and probe_bucket st templates i ~in_port fields residual prio seq best = function
  | [] -> probe_templates st templates (i + 1) ~in_port fields residual prio seq best
  | c :: rest ->
      if not (key_matches c ~in_port fields) then
        probe_bucket st templates i ~in_port fields residual prio seq best rest
      else if precedes c.prio c.seq prio seq then
        probe_templates st templates (i + 1) ~in_port fields residual c.prio c.seq c.hit
      else probe_templates st templates (i + 1) ~in_port fields residual prio seq best

and scan_residual st residual i ~in_port fields prio seq best =
  if i = Array.length residual then best
  else begin
    let r = residual.(i) in
    st.residual_scans <- st.residual_scans + 1;
    if precedes r.r_prio r.r_seq prio seq && Of_match.matches r.r_match ~in_port fields
    then scan_residual st residual (i + 1) ~in_port fields r.r_prio r.r_seq r.r_hit
    else scan_residual st residual (i + 1) ~in_port fields prio seq best
  end

let lookup st table_id ~in_port fields =
  let ct = st.compiled.(table_id) in
  probe_templates st ct.templates 0 ~in_port fields ct.residual min_int max_int None

let create pipeline =
  let st =
    {
      compiled = Array.init (Pipeline.num_tables pipeline) (fun _ -> empty_table ());
      seen_version = -1;
      recompiles = 0;
      packets = 0;
      probes = 0;
      residual_scans = 0;
    }
  in
  let lookup table_id ~in_port fields = lookup st table_id ~in_port fields in
  let process ~now_ns ~in_port pkt =
    let v = Pipeline.version pipeline in
    if v <> st.seen_version then begin
      st.seen_version <- v;
      Array.iteri (fun i ct -> sync ct (Pipeline.table pipeline i)) st.compiled;
      st.recompiles <- st.recompiles + 1
    end;
    st.packets <- st.packets + 1;
    st.probes <- 0;
    st.residual_scans <- 0;
    let result =
      Pipeline.execute_with pipeline ~lookup ~now_ns ~in_port pkt
        (Packet.Fields.of_packet pkt)
    in
    Pipeline.set_cycles result
      (Dataplane.Cost.parse
      + (st.probes * Dataplane.Cost.eswitch_template)
      + (st.residual_scans * Dataplane.Cost.linear_per_entry)
      + Dataplane.cycles_of_result result);
    result
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
