type l3 =
  | Ip of Ipv4.t
  | Arp of Arp.t
  | Raw of Ethertype.t * string

type t = {
  dst : Mac_addr.t;
  src : Mac_addr.t;
  vlans : Vlan.t list;
  l3 : l3;
}

let make ?(vlans = []) ~dst ~src l3 = { dst; src; vlans; l3 }

let ethertype t =
  match t.l3 with
  | Ip _ -> Ethertype.Ipv4
  | Arp _ -> Ethertype.Arp
  | Raw (ty, _) -> ty

let push_vlan tag t = { t with vlans = tag :: t.vlans }

let pop_vlan t =
  match t.vlans with
  | [] -> None
  | tag :: rest -> Some (tag, { t with vlans = rest })

let strip_vlan t =
  match t.vlans with [] -> t | _ :: rest -> { t with vlans = rest }

let outer_vid t =
  match t.vlans with [] -> None | tag :: _ -> Some tag.Vlan.vid

let set_outer_vid vid t =
  match t.vlans with
  | [] -> invalid_arg "Packet.set_outer_vid: untagged frame"
  | tag :: rest -> { t with vlans = { tag with Vlan.vid } :: rest }

let payload_size t =
  match t.l3 with
  | Ip ip -> Ipv4.size ip
  | Arp _ -> Arp.size
  | Raw (_, bytes) -> String.length bytes

let size t = 14 + (4 * List.length t.vlans) + payload_size t

let wire_size t = Int.max 60 (size t) + 4

let l3_bytes = function
  | Ip ip -> Ipv4.encode ip
  | Arp arp -> Arp.encode arp
  | Raw (_, bytes) -> bytes

let encode t =
  let w = Wire.W.create () in
  Wire.W.bytes w (Mac_addr.to_bytes t.dst);
  Wire.W.bytes w (Mac_addr.to_bytes t.src);
  List.iter
    (fun tag ->
      Wire.W.u16 w (Ethertype.to_int Ethertype.Vlan);
      Wire.W.u16 w (Vlan.tci tag))
    t.vlans;
  Wire.W.u16 w (Ethertype.to_int (ethertype t));
  Wire.W.bytes w (l3_bytes t.l3);
  Wire.W.contents w

let decode s =
  let ctx = "ethernet" in
  let r = Wire.R.create s in
  let dst = Mac_addr.of_bytes (Wire.R.bytes ~ctx r 6) in
  let src = Mac_addr.of_bytes (Wire.R.bytes ~ctx r 6) in
  let rec read_tags acc =
    let ety = Ethertype.of_int (Wire.R.u16 ~ctx r) in
    match ety with
    | Ethertype.Vlan | Ethertype.Qinq ->
        let tag = Vlan.of_tci (Wire.R.u16 ~ctx r) in
        read_tags (tag :: acc)
    | Ethertype.Ipv4 | Ethertype.Arp | Ethertype.Unknown _ -> (List.rev acc, ety)
  in
  let vlans, inner = read_tags [] in
  let body = Wire.R.rest r in
  let l3 =
    match inner with
    | Ethertype.Ipv4 -> Ip (Ipv4.decode body)
    | Ethertype.Arp -> Arp (Arp.decode body)
    | (Ethertype.Unknown _ | Ethertype.Vlan | Ethertype.Qinq) as ty -> Raw (ty, body)
  in
  { dst; src; vlans; l3 }

let equal_l3 a b =
  match (a, b) with
  | Ip x, Ip y -> Ipv4.equal x y
  | Arp x, Arp y -> Arp.equal x y
  | Raw (tx, x), Raw (ty, y) -> Ethertype.equal tx ty && String.equal x y
  | (Ip _ | Arp _ | Raw _), _ -> false

let equal a b =
  Mac_addr.equal a.dst b.dst
  && Mac_addr.equal a.src b.src
  && List.length a.vlans = List.length b.vlans
  && List.for_all2 Vlan.equal a.vlans b.vlans
  && equal_l3 a.l3 b.l3

let pp_l3 fmt = function
  | Ip ip -> Ipv4.pp fmt ip
  | Arp arp -> Arp.pp fmt arp
  | Raw (ty, bytes) -> Format.fprintf fmt "%a len %d" Ethertype.pp ty (String.length bytes)

let pp fmt t =
  Format.fprintf fmt "%a > %a%a %a" Mac_addr.pp t.src Mac_addr.pp t.dst
    (fun fmt tags ->
      List.iter (fun tag -> Format.fprintf fmt " [%a]" Vlan.pp tag) tags)
    t.vlans pp_l3 t.l3

module Fields = struct
  type packet = t

  type t = {
    eth_dst : int;
    eth_src : int;
    eth_type : int;
    vlan_vid : int;
    vlan_pcp : int;
    ip_src : int;
    ip_dst : int;
    ip_proto : int;
    ip_tos : int;
    l4_src : int;
    l4_dst : int;
  }

  let absent = -1

  (* One record and nothing else: every branch hands plain ints to [make]. *)
  let make (p : packet) ~ip_src ~ip_dst ~ip_proto ~ip_tos ~l4_src ~l4_dst =
    let vlan_vid = match p.vlans with [] -> absent | tag :: _ -> tag.Vlan.vid in
    let vlan_pcp = match p.vlans with [] -> absent | tag :: _ -> tag.Vlan.pcp in
    {
      eth_dst = Mac_addr.to_int p.dst;
      eth_src = Mac_addr.to_int p.src;
      eth_type = Ethertype.to_int (ethertype p);
      vlan_vid;
      vlan_pcp;
      ip_src;
      ip_dst;
      ip_proto;
      ip_tos;
      l4_src;
      l4_dst;
    }

  let of_packet (p : packet) =
    match p.l3 with
    | Ip ip -> (
        let ip_src = Ipv4_addr.to_int ip.Ipv4.src
        and ip_dst = Ipv4_addr.to_int ip.Ipv4.dst
        and ip_proto = Ipv4.protocol_number ip.Ipv4.payload
        and ip_tos = ip.Ipv4.tos in
        match ip.Ipv4.payload with
        | Ipv4.Tcp seg ->
            make p ~ip_src ~ip_dst ~ip_proto ~ip_tos ~l4_src:seg.Tcp.src_port
              ~l4_dst:seg.Tcp.dst_port
        | Ipv4.Udp dgram ->
            make p ~ip_src ~ip_dst ~ip_proto ~ip_tos ~l4_src:dgram.Udp.src_port
              ~l4_dst:dgram.Udp.dst_port
        | Ipv4.Icmp _ | Ipv4.Raw _ ->
            make p ~ip_src ~ip_dst ~ip_proto ~ip_tos ~l4_src:absent ~l4_dst:absent)
    | Arp _ | Raw _ ->
        make p ~ip_src:absent ~ip_dst:absent ~ip_proto:absent ~ip_tos:absent
          ~l4_src:absent ~l4_dst:absent
end

(* Splitmix64-style finalizer over native 63-bit ints: deterministic
   across runs (unlike [Hashtbl.hash]) and allocation-free (no boxed
   int64), so flow hashing can sit on the packet hot path.  Kept local —
   netpkt is below telemetry in the dependency order. *)
let mix63 ~seed x =
  let x = x lxor seed in
  let x = x lxor (x lsr 30) in
  let x = x * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 27) in
  let x = x * 0x1B03738712FAD5C9 in
  let x = x lxor (x lsr 31) in
  x land max_int

let hash_flow_parts ~seed ~ety ~proto ~src ~dst ~sport ~dport =
  let a = Ipv4_addr.to_int src in
  let b = Ipv4_addr.to_int dst in
  let c =
    ((ety land 0xFFFF) lsl 41)
    lor ((proto + 1) lsl 32)
    lor ((sport land 0xFFFF) lsl 16)
    lor (dport land 0xFFFF)
  in
  mix63 ~seed:(mix63 ~seed:(mix63 ~seed a) b) c

module Flow_key = struct
  type t = {
    fk_ety : int;
    fk_proto : int;
    fk_src : Ipv4_addr.t;
    fk_dst : Ipv4_addr.t;
    fk_sport : int;
    fk_dport : int;
  }

  let equal a b =
    a.fk_ety = b.fk_ety && a.fk_proto = b.fk_proto
    && Ipv4_addr.equal a.fk_src b.fk_src
    && Ipv4_addr.equal a.fk_dst b.fk_dst
    && a.fk_sport = b.fk_sport && a.fk_dport = b.fk_dport

  let compare a b =
    let c = Int.compare a.fk_ety b.fk_ety in
    if c <> 0 then c
    else
      let c = Int.compare a.fk_proto b.fk_proto in
      if c <> 0 then c
      else
        let c = Ipv4_addr.compare a.fk_src b.fk_src in
        if c <> 0 then c
        else
          let c = Ipv4_addr.compare a.fk_dst b.fk_dst in
          if c <> 0 then c
          else
            let c = Int.compare a.fk_sport b.fk_sport in
            if c <> 0 then c else Int.compare a.fk_dport b.fk_dport

  let hash ?(seed = 0) t =
    hash_flow_parts ~seed ~ety:t.fk_ety ~proto:t.fk_proto ~src:t.fk_src
      ~dst:t.fk_dst ~sport:t.fk_sport ~dport:t.fk_dport

  let to_string t =
    if t.fk_proto < 0 then Printf.sprintf "ety:0x%04x" t.fk_ety
    else
      let src = Ipv4_addr.to_string t.fk_src
      and dst = Ipv4_addr.to_string t.fk_dst in
      match t.fk_proto with
      | 6 -> Printf.sprintf "tcp %s:%d>%s:%d" src t.fk_sport dst t.fk_dport
      | 17 -> Printf.sprintf "udp %s:%d>%s:%d" src t.fk_sport dst t.fk_dport
      | 1 -> Printf.sprintf "icmp %s>%s" src dst
      | p -> Printf.sprintf "ip(%d) %s>%s" p src dst

  let pp fmt t = Format.pp_print_string fmt (to_string t)
end

let flow_key t =
  match t.l3 with
  | Ip ip ->
      let sport, dport =
        match ip.Ipv4.payload with
        | Ipv4.Tcp seg -> (seg.Tcp.src_port, seg.Tcp.dst_port)
        | Ipv4.Udp dgram -> (dgram.Udp.src_port, dgram.Udp.dst_port)
        | Ipv4.Icmp _ | Ipv4.Raw _ -> (0, 0)
      in
      {
        Flow_key.fk_ety = Ethertype.to_int Ethertype.Ipv4;
        fk_proto = Ipv4.protocol_number ip.Ipv4.payload;
        fk_src = ip.Ipv4.src;
        fk_dst = ip.Ipv4.dst;
        fk_sport = sport;
        fk_dport = dport;
      }
  | Arp _ | Raw _ ->
      {
        Flow_key.fk_ety = Ethertype.to_int (ethertype t);
        fk_proto = -1;
        fk_src = Ipv4_addr.any;
        fk_dst = Ipv4_addr.any;
        fk_sport = 0;
        fk_dport = 0;
      }

(* Same value as [Flow_key.hash ~seed (flow_key t)] but computed without
   materializing the record — the form the zero-alloc fast path wants. *)
let flow_hash ~seed t =
  match t.l3 with
  | Ip ip ->
      let sport, dport =
        match ip.Ipv4.payload with
        | Ipv4.Tcp seg -> (seg.Tcp.src_port, seg.Tcp.dst_port)
        | Ipv4.Udp dgram -> (dgram.Udp.src_port, dgram.Udp.dst_port)
        | Ipv4.Icmp _ | Ipv4.Raw _ -> (0, 0)
      in
      hash_flow_parts ~seed
        ~ety:(Ethertype.to_int Ethertype.Ipv4)
        ~proto:(Ipv4.protocol_number ip.Ipv4.payload)
        ~src:ip.Ipv4.src ~dst:ip.Ipv4.dst ~sport ~dport
  | Arp _ | Raw _ ->
      hash_flow_parts ~seed
        ~ety:(Ethertype.to_int (ethertype t))
        ~proto:(-1) ~src:Ipv4_addr.any ~dst:Ipv4_addr.any ~sport:0 ~dport:0

let udp ?vlans ~dst ~src ~ip_src ~ip_dst ~src_port ~dst_port payload =
  let dgram = Udp.make ~src_port ~dst_port payload in
  make ?vlans ~dst ~src (Ip (Ipv4.make ~src:ip_src ~dst:ip_dst (Ipv4.Udp dgram)))

let tcp ?vlans ?flags ~dst ~src ~ip_src ~ip_dst ~src_port ~dst_port payload =
  let seg = Tcp.make ~src_port ~dst_port ?flags payload in
  make ?vlans ~dst ~src (Ip (Ipv4.make ~src:ip_src ~dst:ip_dst (Ipv4.Tcp seg)))

let icmp_echo ~dst ~src ~ip_src ~ip_dst ~id ~seq =
  let msg = Icmp.echo_request ~id ~seq () in
  make ~dst ~src (Ip (Ipv4.make ~src:ip_src ~dst:ip_dst (Ipv4.Icmp msg)))

let arp_request ~src_mac ~src_ip ~target_ip =
  make ~dst:Mac_addr.broadcast ~src:src_mac
    (Arp (Arp.request ~sha:src_mac ~spa:src_ip ~tpa:target_ip))

let pad_to n t =
  (* The frame body must reach [n - 4] bytes (FCS excluded) for the wire
     size to reach [n]; the 60-byte floor cannot help once n >= 64. *)
  let deficit = n - 4 - size t in
  if deficit <= 0 then t
  else
    let grow payload = payload ^ String.make deficit '\x00' in
    match t.l3 with
    | Ip ip -> (
        match ip.Ipv4.payload with
        | Ipv4.Udp dgram ->
            { t with l3 = Ip { ip with Ipv4.payload = Ipv4.Udp { dgram with Udp.payload = grow dgram.Udp.payload } } }
        | Ipv4.Tcp seg ->
            { t with l3 = Ip { ip with Ipv4.payload = Ipv4.Tcp { seg with Tcp.payload = grow seg.Tcp.payload } } }
        | Ipv4.Icmp _ | Ipv4.Raw _ -> t)
    | Raw (ty, bytes) -> { t with l3 = Raw (ty, grow bytes) }
    | Arp _ -> t
