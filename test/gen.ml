(* QCheck generators shared by the property tests. *)

open Netpkt

let mac_gen =
  QCheck2.Gen.map
    (fun n -> Mac_addr.of_int64 (Int64.of_int n))
    (QCheck2.Gen.int_bound 0xffffff)

let unicast_mac_gen =
  (* make_local guarantees the group bit is clear *)
  QCheck2.Gen.map Mac_addr.make_local (QCheck2.Gen.int_bound 0xffff)

let ip_gen =
  QCheck2.Gen.map
    (fun n -> Ipv4_addr.of_int32 (Int32.of_int n))
    (QCheck2.Gen.int_bound 0x3fffffff)

let prefix_gen =
  QCheck2.Gen.map2
    (fun ip len -> Ipv4_addr.Prefix.make ip len)
    ip_gen
    (QCheck2.Gen.int_range 0 32)

let port_gen = QCheck2.Gen.int_bound 0xffff

let payload_gen =
  QCheck2.Gen.map
    (fun chars -> String.init (List.length chars) (List.nth chars))
    (QCheck2.Gen.list_size (QCheck2.Gen.int_bound 64) QCheck2.Gen.printable)

let vlan_gen =
  QCheck2.Gen.map2
    (fun vid pcp -> Vlan.make ~pcp vid)
    (QCheck2.Gen.int_range 1 4094)
    (QCheck2.Gen.int_range 0 7)

let l4_gen =
  let open QCheck2.Gen in
  oneof
    [
      map3
        (fun sp dp payload -> Ipv4.Udp (Udp.make ~src_port:sp ~dst_port:dp payload))
        port_gen port_gen payload_gen;
      map3
        (fun sp dp payload ->
          Ipv4.Tcp (Tcp.make ~src_port:sp ~dst_port:dp ~flags:Tcp.syn payload))
        port_gen port_gen payload_gen;
      map2
        (fun id seq -> Ipv4.Icmp (Icmp.echo_request ~id ~seq ()))
        (int_bound 0xffff) (int_bound 0xffff);
    ]

let l3_gen =
  let open QCheck2.Gen in
  oneof
    [
      map3
        (fun src dst l4 -> Packet.Ip (Ipv4.make ~src ~dst l4))
        ip_gen ip_gen l4_gen;
      map3
        (fun sha spa tpa -> Packet.Arp (Arp.request ~sha ~spa ~tpa))
        unicast_mac_gen ip_gen ip_gen;
    ]

let packet_gen =
  let open QCheck2.Gen in
  map3
    (fun (dst, src) vlans l3 -> Packet.make ~vlans ~dst ~src l3)
    (pair unicast_mac_gen unicast_mac_gen)
    (list_size (int_bound 2) vlan_gen)
    l3_gen

let packet_print pkt = Format.asprintf "%a" Packet.pp pkt

(* Matches over a few values per field, negative ones included, so two
   independent draws often test the same value. *)
let small_match_gen =
  let open QCheck2.Gen in
  let module M = Openflow.Of_match in
  let opt g = oneof [ return None; map Option.some g ] in
  let mac_test =
    map2
      (fun value mask -> { M.value = Mac_addr.make_local value; mask })
      (int_bound 2)
      (oneofl
         [ Mac_addr.broadcast; Mac_addr.of_string "ff:ff:ff:00:00:00"; Mac_addr.zero ])
  in
  let prefix =
    map Ipv4_addr.Prefix.of_string
      (oneofl [ "10.0.0.0/8"; "10.0.0.1/32"; "0.0.0.0/0"; "192.168.1.200/32"; "192.168.0.0/16" ])
  in
  let port = oneofl [ 0; 80; 443; -1 ] in
  let vlan =
    oneof
      [ oneofl [ M.Absent; M.Present ]; map (fun v -> M.Vid v) (oneofl [ 0; 1; 101; -1 ]) ]
  in
  let* in_port = opt (oneofl [ 0; 1; -1 ]) in
  let* eth_dst = opt mac_test in
  let* eth_src = opt mac_test in
  let* eth_type = opt (oneofl [ 0x0800; 0x0806; 0x88b5; -1 ]) in
  let* vlan = opt vlan in
  let* vlan_pcp = opt (oneofl [ 0; 3; -1 ]) in
  let* ip_src = opt prefix in
  let* ip_dst = opt prefix in
  let* ip_proto = opt (oneofl [ 0; 1; 6; 17; 47; -1 ]) in
  let* ip_tos = opt (oneofl [ 0; 4; -1 ]) in
  let* l4_src = opt port in
  let+ l4_dst = opt port in
  {
    M.in_port; eth_dst; eth_src; eth_type; vlan; vlan_pcp; ip_src; ip_dst;
    ip_proto; ip_tos; l4_src; l4_dst;
  }
