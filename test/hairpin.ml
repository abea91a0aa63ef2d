(* The SS_1 layout checked frame by frame, shared by the scale-out and
   failover tests. *)

open Simnet
open Netpkt
module SS = Softswitch.Soft_switch

let frame vlans =
  Packet.udp ~vlans
    ~dst:(Mac_addr.make_local 0x99)
    ~src:(Mac_addr.make_local 0x98)
    ~ip_src:(Ipv4_addr.of_string "10.9.9.8")
    ~ip_dst:(Ipv4_addr.of_string "10.9.9.9")
    ~src_port:1 ~dst_port:2 "layout"

let settle engine =
  Engine.run engine ~until:(Sim_time.add (Engine.now engine) (Sim_time.ms 5))

(* For every logical port [i] of [map]: a frame tagged [vid(i)] that
   arrives on SS_1's trunk NIC [nic] reaches SS_2 untagged on port
   [offset + i], and a frame SS_2 sends out of that port leaves SS_1 on
   NIC [nic] carrying exactly [vid(i)].  The NIC must be cabled, since a
   frame sent out of a bare port is dropped before any tap sees it. *)
let check engine ~ss1 ~nic ~ss2 ~offset map =
  let ss2_rx = ref [] and nic_tx = ref [] in
  let nics = Node.port_count (SS.node ss1) - Harmless.Port_map.size map in
  Node.add_tap (SS.node ss2) (fun dir port pkt ->
      if dir = Node.Rx then ss2_rx := (port, pkt) :: !ss2_rx);
  Node.add_tap (SS.node ss1) (fun dir port pkt ->
      if dir = Node.Tx && port < nics then nic_tx := (port, pkt) :: !nic_tx);
  let vids pkt = List.map (fun tag -> tag.Vlan.vid) pkt.Packet.vlans in
  let seen log = List.rev_map (fun (port, pkt) -> (port, vids pkt)) !log in
  List.iteri
    (fun i vid ->
      let label = Printf.sprintf "%s vid %d" (SS.name ss1) vid in
      ss2_rx := [];
      Node.deliver (SS.node ss1) ~port:nic (frame [ Vlan.make vid ]);
      settle engine;
      Alcotest.(check (list (pair int (list int))))
        (label ^ ": trunk to SS_2, untagged")
        [ (offset + i, []) ]
        (seen ss2_rx);
      nic_tx := [];
      SS.handle_message ss2
        (Openflow.Of_message.Packet_out
           {
             in_port = None;
             actions = [ Openflow.Of_action.output (offset + i) ];
             packet = frame [];
           });
      settle engine;
      Alcotest.(check (list (pair int (list int))))
        (label ^ ": SS_2 back out of the same NIC, tagged")
        [ (nic, [ vid ]) ]
        (seen nic_tx))
    (Harmless.Port_map.vids map)
