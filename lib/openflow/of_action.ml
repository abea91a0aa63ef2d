open Netpkt

type out_port = Physical of int | In_port | Flood | All | Controller of int

type t =
  | Output of out_port
  | Group of int
  | Push_vlan
  | Pop_vlan
  | Set_vlan_vid of int
  | Set_vlan_pcp of int
  | Set_eth_src of Mac_addr.t
  | Set_eth_dst of Mac_addr.t
  | Set_ip_src of Ipv4_addr.t
  | Set_ip_dst of Ipv4_addr.t
  | Set_ip_tos of int
  | Set_l4_src of int
  | Set_l4_dst of int
  | Drop

let output n = Output (Physical n)

let map_ip pkt f =
  match pkt.Packet.l3 with
  | Packet.Ip ip -> { pkt with Packet.l3 = Packet.Ip (f ip) }
  | Packet.Arp _ | Packet.Raw _ -> pkt

let map_l4 pkt ~tcp ~udp =
  map_ip pkt (fun ip ->
      match ip.Ipv4.payload with
      | Ipv4.Tcp seg -> { ip with Ipv4.payload = Ipv4.Tcp (tcp seg) }
      | Ipv4.Udp dgram -> { ip with Ipv4.payload = Ipv4.Udp (udp dgram) }
      | Ipv4.Icmp _ | Ipv4.Raw _ -> ip)

(* Tags are immutable, so every pushed tag can be this one. *)
let vid0 = Vlan.make 0

let apply_rewrite action pkt =
  match action with
  | Output _ | Group _ | Drop -> pkt
  | Push_vlan -> Packet.push_vlan vid0 pkt
  | Pop_vlan -> Packet.strip_vlan pkt
  | Set_vlan_vid vid -> (
      match pkt.Packet.vlans with
      | [] -> pkt
      | _ :: _ -> Packet.set_outer_vid vid pkt)
  | Set_vlan_pcp pcp -> (
      match pkt.Packet.vlans with
      | [] -> pkt
      | tag :: rest -> { pkt with Packet.vlans = { tag with Vlan.pcp } :: rest })
  | Set_eth_src mac -> { pkt with Packet.src = mac }
  | Set_eth_dst mac -> { pkt with Packet.dst = mac }
  | Set_ip_src ip -> map_ip pkt (fun hdr -> { hdr with Ipv4.src = ip })
  | Set_ip_dst ip -> map_ip pkt (fun hdr -> { hdr with Ipv4.dst = ip })
  | Set_ip_tos tos -> map_ip pkt (fun hdr -> { hdr with Ipv4.tos })
  | Set_l4_src port ->
      map_l4 pkt
        ~tcp:(fun seg -> { seg with Tcp.src_port = port })
        ~udp:(fun dgram -> { dgram with Udp.src_port = port })
  | Set_l4_dst port ->
      map_l4 pkt
        ~tcp:(fun seg -> { seg with Tcp.dst_port = port })
        ~udp:(fun dgram -> { dgram with Udp.dst_port = port })

let equal a b = a = b

let pp_out fmt = function
  | Physical n -> Format.fprintf fmt "output:%d" n
  | In_port -> Format.pp_print_string fmt "output:in_port"
  | Flood -> Format.pp_print_string fmt "output:flood"
  | All -> Format.pp_print_string fmt "output:all"
  | Controller n -> Format.fprintf fmt "output:controller(%d)" n

let pp fmt = function
  | Output o -> pp_out fmt o
  | Group g -> Format.fprintf fmt "group:%d" g
  | Push_vlan -> Format.pp_print_string fmt "push_vlan"
  | Pop_vlan -> Format.pp_print_string fmt "pop_vlan"
  | Set_vlan_vid v -> Format.fprintf fmt "set_vlan_vid:%d" v
  | Set_vlan_pcp p -> Format.fprintf fmt "set_vlan_pcp:%d" p
  | Set_eth_src m -> Format.fprintf fmt "set_eth_src:%a" Mac_addr.pp m
  | Set_eth_dst m -> Format.fprintf fmt "set_eth_dst:%a" Mac_addr.pp m
  | Set_ip_src i -> Format.fprintf fmt "set_ip_src:%a" Ipv4_addr.pp i
  | Set_ip_dst i -> Format.fprintf fmt "set_ip_dst:%a" Ipv4_addr.pp i
  | Set_ip_tos v -> Format.fprintf fmt "set_ip_tos:%d" v
  | Set_l4_src p -> Format.fprintf fmt "set_l4_src:%d" p
  | Set_l4_dst p -> Format.fprintf fmt "set_l4_dst:%d" p
  | Drop -> Format.pp_print_string fmt "drop"

let pp_list fmt actions =
  match actions with
  | [] -> Format.pp_print_string fmt "drop"
  | actions ->
      Format.pp_print_list
        ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
        pp fmt actions
