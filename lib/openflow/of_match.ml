open Netpkt

type mac_test = { value : Mac_addr.t; mask : Mac_addr.t }

type vlan_test = Absent | Present | Vid of int

type t = {
  in_port : int option;
  eth_dst : mac_test option;
  eth_src : mac_test option;
  eth_type : int option;
  vlan : vlan_test option;
  vlan_pcp : int option;
  ip_src : Ipv4_addr.Prefix.t option;
  ip_dst : Ipv4_addr.Prefix.t option;
  ip_proto : int option;
  ip_tos : int option;
  l4_src : int option;
  l4_dst : int option;
}

let any =
  {
    in_port = None;
    eth_dst = None;
    eth_src = None;
    eth_type = None;
    vlan = None;
    vlan_pcp = None;
    ip_src = None;
    ip_dst = None;
    ip_proto = None;
    ip_tos = None;
    l4_src = None;
    l4_dst = None;
  }

let full_mask = Mac_addr.broadcast
let in_port p t = { t with in_port = Some p }
let eth_dst ?(mask = full_mask) value t = { t with eth_dst = Some { value; mask } }
let eth_src ?(mask = full_mask) value t = { t with eth_src = Some { value; mask } }
let eth_type ty t = { t with eth_type = Some ty }
let vlan_absent t = { t with vlan = Some Absent }
let vlan_present t = { t with vlan = Some Present }
let vid v t = { t with vlan = Some (Vid v) }
let vlan_pcp p t = { t with vlan_pcp = Some p }
let ip_src p t = { t with ip_src = Some p }
let ip_dst p t = { t with ip_dst = Some p }
let ip_proto p t = { t with ip_proto = Some p }
let ip_tos v t = { t with ip_tos = Some v }
let l4_src p t = { t with l4_src = Some p }
let l4_dst p t = { t with l4_dst = Some p }

(* Match-time tests read the int fields of {!Packet.Fields}: no closure,
   option or boxed int per test.  A tested value equals the field only
   when the field is present, so a negative test value still fails on an
   absent field. *)
let mac_test_matches test mac =
  match test with
  | None -> true
  | Some { value; mask } ->
      let m = Mac_addr.to_int mask in
      mac land m = Mac_addr.to_int value land m

let int_test_matches test actual =
  match test with
  | None -> true
  | Some expected -> actual = expected && actual <> Packet.Fields.absent

let prefix_test_matches test actual =
  match test with
  | None -> true
  | Some prefix ->
      actual <> Packet.Fields.absent && Ipv4_addr.Prefix.mem_int actual prefix

let vlan_test_matches test vid =
  match test with
  | None -> true
  | Some Absent -> vid = Packet.Fields.absent
  | Some Present -> vid <> Packet.Fields.absent
  | Some (Vid expected) -> vid = expected && vid <> Packet.Fields.absent

let matches t ~in_port:port (f : Packet.Fields.t) =
  (match t.in_port with None -> true | Some p -> p = port)
  && mac_test_matches t.eth_dst f.Packet.Fields.eth_dst
  && mac_test_matches t.eth_src f.Packet.Fields.eth_src
  && (match t.eth_type with None -> true | Some ty -> ty = f.Packet.Fields.eth_type)
  && vlan_test_matches t.vlan f.Packet.Fields.vlan_vid
  && int_test_matches t.vlan_pcp f.Packet.Fields.vlan_pcp
  && prefix_test_matches t.ip_src f.Packet.Fields.ip_src
  && prefix_test_matches t.ip_dst f.Packet.Fields.ip_dst
  && int_test_matches t.ip_proto f.Packet.Fields.ip_proto
  && int_test_matches t.ip_tos f.Packet.Fields.ip_tos
  && int_test_matches t.l4_src f.Packet.Fields.l4_src
  && int_test_matches t.l4_dst f.Packet.Fields.l4_dst

let matches_packet t ~in_port pkt =
  matches t ~in_port (Packet.Fields.of_packet pkt)

(* [sub_opt field_subsumes a b]: does test [a] accept everything [b]
   accepts? A wildcard accepts everything; a present test against a
   wildcard does not. *)
let sub_opt field_subsumes a b =
  match (a, b) with
  | None, _ -> true
  | Some _, None -> false
  | Some x, Some y -> field_subsumes x y

let mac_subsumes a b =
  (* a's constrained bits must be constrained identically in b. *)
  let am = Mac_addr.to_int a.mask and bm = Mac_addr.to_int b.mask in
  am land bm = am
  && Mac_addr.to_int a.value land am = Mac_addr.to_int b.value land am

let vlan_subsumes a b =
  match (a, b) with
  | Present, (Present | Vid _) -> true
  | Absent, Absent -> true
  | Vid x, Vid y -> x = y
  | (Absent | Present | Vid _), _ -> false

let subsumes a b =
  sub_opt ( = ) a.in_port b.in_port
  && sub_opt mac_subsumes a.eth_dst b.eth_dst
  && sub_opt mac_subsumes a.eth_src b.eth_src
  && sub_opt ( = ) a.eth_type b.eth_type
  && sub_opt vlan_subsumes a.vlan b.vlan
  && sub_opt ( = ) a.vlan_pcp b.vlan_pcp
  && sub_opt Ipv4_addr.Prefix.subsumes a.ip_src b.ip_src
  && sub_opt Ipv4_addr.Prefix.subsumes a.ip_dst b.ip_dst
  && sub_opt ( = ) a.ip_proto b.ip_proto
  && sub_opt ( = ) a.ip_tos b.ip_tos
  && sub_opt ( = ) a.l4_src b.l4_src
  && sub_opt ( = ) a.l4_dst b.l4_dst

(* Field by field with monomorphic tests: a flow-mod compares its match
   against every entry of its priority run, and polymorphic [=] costs
   several times as much there.  Each test is [=] on its field. *)
let int_eq (a : int option) b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> x = y
  | None, Some _ | Some _, None -> false

let mac_eq a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Mac_addr.equal x.value y.value && Mac_addr.equal x.mask y.mask
  | None, Some _ | Some _, None -> false

let vlan_eq a b =
  match (a, b) with
  | None, None | Some Absent, Some Absent | Some Present, Some Present -> true
  | Some (Vid x), Some (Vid y) -> x = y
  | _ -> false

let prefix_eq a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Ipv4_addr.Prefix.equal x y
  | None, Some _ | Some _, None -> false

let equal a b =
  a == b
  || int_eq a.in_port b.in_port
     && mac_eq a.eth_dst b.eth_dst
     && mac_eq a.eth_src b.eth_src
     && int_eq a.eth_type b.eth_type
     && vlan_eq a.vlan b.vlan
     && int_eq a.vlan_pcp b.vlan_pcp
     && prefix_eq a.ip_src b.ip_src
     && prefix_eq a.ip_dst b.ip_dst
     && int_eq a.ip_proto b.ip_proto
     && int_eq a.ip_tos b.ip_tos
     && int_eq a.l4_src b.l4_src
     && int_eq a.l4_dst b.l4_dst

let is_exact_overlap = equal
let compare = Stdlib.compare
let hash = Hashtbl.hash

let wildcard_count t =
  let count opt = if Option.is_none opt then 1 else 0 in
  count t.in_port + count t.eth_dst + count t.eth_src + count t.eth_type
  + count t.vlan + count t.vlan_pcp + count t.ip_src + count t.ip_dst
  + count t.ip_proto + count t.ip_tos + count t.l4_src + count t.l4_dst

let pp fmt t =
  let parts = ref [] in
  let add name s = parts := Printf.sprintf "%s=%s" name s :: !parts in
  Option.iter (fun p -> add "in_port" (string_of_int p)) t.in_port;
  Option.iter
    (fun m ->
      add "eth_dst"
        (if Mac_addr.equal m.mask full_mask then Mac_addr.to_string m.value
         else Mac_addr.to_string m.value ^ "/" ^ Mac_addr.to_string m.mask))
    t.eth_dst;
  Option.iter
    (fun m ->
      add "eth_src"
        (if Mac_addr.equal m.mask full_mask then Mac_addr.to_string m.value
         else Mac_addr.to_string m.value ^ "/" ^ Mac_addr.to_string m.mask))
    t.eth_src;
  Option.iter (fun ty -> add "eth_type" (Printf.sprintf "0x%04x" ty)) t.eth_type;
  Option.iter
    (fun v ->
      add "vlan"
        (match v with Absent -> "none" | Present -> "any" | Vid x -> string_of_int x))
    t.vlan;
  Option.iter (fun p -> add "pcp" (string_of_int p)) t.vlan_pcp;
  Option.iter (fun p -> add "ip_src" (Ipv4_addr.Prefix.to_string p)) t.ip_src;
  Option.iter (fun p -> add "ip_dst" (Ipv4_addr.Prefix.to_string p)) t.ip_dst;
  Option.iter (fun p -> add "proto" (string_of_int p)) t.ip_proto;
  Option.iter (fun v -> add "tos" (string_of_int v)) t.ip_tos;
  Option.iter (fun p -> add "l4_src" (string_of_int p)) t.l4_src;
  Option.iter (fun p -> add "l4_dst" (string_of_int p)) t.l4_dst;
  match !parts with
  | [] -> Format.pp_print_string fmt "*"
  | parts -> Format.pp_print_string fmt (String.concat "," (List.rev parts))
