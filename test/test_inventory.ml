open Simnet
open Ethswitch
open Netpkt

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let mac i = Mac_addr.make_local i

(* ---- port security on the legacy switch ---- *)

let security_rig () =
  let engine = Engine.create () in
  let sw = Legacy_switch.create engine ~name:"sw" ~ports:2 ~processing_delay:0 () in
  let received = ref 0 in
  let a = Node.create engine ~name:"a" ~ports:1 in
  let b = Node.create engine ~name:"b" ~ports:1 in
  Node.set_handler b (fun _ ~in_port:_ _ -> incr received);
  ignore (Link.connect (a, 0) (Legacy_switch.node sw, 0));
  ignore (Link.connect (b, 0) (Legacy_switch.node sw, 1));
  let send src_mac =
    Node.transmit a ~port:0
      (Packet.udp ~dst:Mac_addr.broadcast ~src:src_mac
         ~ip_src:(Ipv4_addr.of_string "10.0.0.1")
         ~ip_dst:(Ipv4_addr.of_string "10.0.0.255") ~src_port:1 ~dst_port:2 "s")
  in
  (engine, sw, send, received)

let security_tests =
  [
    tc "limits new addresses, keeps known ones working" (fun () ->
        let engine, sw, send, received = security_rig () in
        Legacy_switch.set_port_security sw ~port:0 ~max_macs:(Some 2);
        send (mac 1);
        send (mac 2);
        send (mac 3) (* violation: third address *);
        send (mac 1) (* known address keeps working *);
        Engine.run engine;
        check Alcotest.int "3 delivered" 3 !received;
        check Alcotest.int "1 violation" 1
          (Node.drops (Legacy_switch.node sw) Node.Drop_port_security);
        check Alcotest.int "table holds only 2" 2
          (Mac_table.count_port (Legacy_switch.mac_table sw)
             ~now:(Engine.now engine) ~port:0));
    tc "no limit means no drops" (fun () ->
        let engine, _, send, received = security_rig () in
        for i = 1 to 20 do send (mac i) done;
        Engine.run engine;
        check Alcotest.int "all flooded" 20 !received);
    tc "removing the limit restores learning" (fun () ->
        let engine, sw, send, received = security_rig () in
        Legacy_switch.set_port_security sw ~port:0 ~max_macs:(Some 1);
        send (mac 1);
        send (mac 2);
        Engine.run engine;
        check Alcotest.int "one blocked" 1 !received;
        Legacy_switch.set_port_security sw ~port:0 ~max_macs:None;
        send (mac 2);
        Engine.run engine;
        check Alcotest.int "unblocked" 2 !received);
    tc "an aged-out address frees its port-security slot" (fun () ->
        let engine, sw, send, received = security_rig () in
        Legacy_switch.set_port_security sw ~port:0 ~max_macs:(Some 1);
        send (mac 1);
        Engine.run engine;
        (* mac 1 goes silent past the 300 s aging time; nothing looks it up *)
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.s 301));
        send (mac 2);
        Engine.run engine;
        check Alcotest.int "both forwarded" 2 !received;
        check Alcotest.int "no violation" 0
          (Node.drops (Legacy_switch.node sw) Node.Drop_port_security);
        check Alcotest.int "slot taken by the new address" 1
          (Mac_table.count_port (Legacy_switch.mac_table sw)
             ~now:(Engine.now engine) ~port:0));
    tc "invalid limit rejected" (fun () ->
        let _, sw, _, _ = security_rig () in
        check Alcotest.bool "raises" true
          (try Legacy_switch.set_port_security sw ~port:0 ~max_macs:(Some 0); false
           with Invalid_argument _ -> true));
  ]

(* ---- host tracker app ---- *)

let tracker_tests =
  [
    tc "inventory builds from packet-ins and reacts to port-down" (fun () ->
        let engine = Engine.create () in
        let d =
          match Harmless.Deployment.build_harmless engine ~num_hosts:3 () with
          | Ok d -> d
          | Error m -> failwith m
        in
        let tracker = Sdnctl.Host_tracker.create () in
        ignore
          (Experiments_lib.Common.attach_with_apps d
             [ Sdnctl.Host_tracker.app tracker; Sdnctl.L2_learning.create () ]);
        (* generate some traffic so packet-ins happen *)
        for i = 0 to 2 do
          Host.ping
            (Harmless.Deployment.host d i)
            ~dst_mac:(Harmless.Deployment.host_mac ((i + 1) mod 3))
            ~dst_ip:(Harmless.Deployment.host_ip ((i + 1) mod 3))
            ~seq:i
        done;
        Experiments_lib.Common.run_for engine (Sim_time.ms 100);
        let hosts = Sdnctl.Host_tracker.hosts tracker in
        check Alcotest.int "three hosts" 3 (List.length hosts);
        (match Sdnctl.Host_tracker.find_by_ip tracker (Harmless.Deployment.host_ip 1) with
        | Some e ->
            check Alcotest.int "host1 behind logical port 1" 1 e.Sdnctl.Host_tracker.port;
            check Alcotest.bool "mac matches" true
              (Mac_addr.equal e.Sdnctl.Host_tracker.mac (Harmless.Deployment.host_mac 1))
        | None -> Alcotest.fail "host 1 not tracked");
        check Alcotest.int "no moves" 0 (Sdnctl.Host_tracker.moves_detected tracker));
    tc "mac move detection" (fun () ->
        let tracker = Sdnctl.Host_tracker.create () in
        let app = Sdnctl.Host_tracker.app tracker in
        let engine = Engine.create () in
        let ctrl = Sdnctl.Controller.create engine () in
        let pkt =
          Packet.udp ~dst:(mac 9) ~src:(mac 1)
            ~ip_src:(Ipv4_addr.of_string "10.0.0.1")
            ~ip_dst:(Ipv4_addr.of_string "10.0.0.9") ~src_port:1 ~dst_port:2 "x"
        in
        ignore (app.Sdnctl.Controller.packet_in ctrl 1L ~in_port:0 Openflow.Of_message.No_match pkt);
        ignore (app.Sdnctl.Controller.packet_in ctrl 1L ~in_port:2 Openflow.Of_message.No_match pkt);
        check Alcotest.int "one move" 1 (Sdnctl.Host_tracker.moves_detected tracker);
        (match Sdnctl.Host_tracker.find_by_mac tracker (mac 1) with
        | Some e -> check Alcotest.int "latest port" 2 e.Sdnctl.Host_tracker.port
        | None -> Alcotest.fail "lost");
        (* port-down evicts *)
        app.Sdnctl.Controller.port_status ctrl 1L ~port:2 ~up:false;
        check Alcotest.int "evicted" 0 (List.length (Sdnctl.Host_tracker.hosts tracker)));
  ]



(* ---- ARP proxy ---- *)

let arp_proxy_tests =
  [
    tc "known targets answered by the controller, no flood" (fun () ->
        let engine = Engine.create () in
        let d =
          match Harmless.Deployment.build_harmless engine ~num_hosts:3 () with
          | Ok d -> d
          | Error m -> failwith m
        in
        let tracker = Sdnctl.Host_tracker.create () in
        ignore
          (Experiments_lib.Common.attach_with_apps d
             [
               Sdnctl.Host_tracker.app tracker;
               Sdnctl.Arp_proxy.create tracker;
               Sdnctl.L2_learning.create ();
             ]);
        let h0 = Harmless.Deployment.host d 0 in
        let h1 = Harmless.Deployment.host d 1 in
        let h2 = Harmless.Deployment.host d 2 in
        (* Prime the tracker: h1 talks once, so its location is known. *)
        Host.ping h1 ~dst_mac:(Harmless.Deployment.host_mac 2)
          ~dst_ip:(Host.ip h2) ~seq:1;
        Experiments_lib.Common.run_for engine (Sim_time.ms 50);
        let h2_frames_before = Host.received_count h2 in
        (* h0 ARPs for h1: the proxy should answer; h2 must see nothing. *)
        Host.send h0
          (Packet.arp_request ~src_mac:(Host.mac h0) ~src_ip:(Host.ip h0)
             ~target_ip:(Host.ip h1));
        Experiments_lib.Common.run_for engine (Sim_time.ms 50);
        check Alcotest.bool "h0 resolved h1" true
          (List.exists
             (fun (ip, mac) ->
               Ipv4_addr.equal ip (Host.ip h1)
               && Mac_addr.equal mac (Host.mac h1))
             (Host.arp_cache h0));
        check Alcotest.int "no flood reached h2" h2_frames_before
          (Host.received_count h2));
    tc "unknown targets still flood and get answered by the host" (fun () ->
        let engine = Engine.create () in
        let d =
          match Harmless.Deployment.build_harmless engine ~num_hosts:2 () with
          | Ok d -> d
          | Error m -> failwith m
        in
        let tracker = Sdnctl.Host_tracker.create () in
        ignore
          (Experiments_lib.Common.attach_with_apps d
             [
               Sdnctl.Host_tracker.app tracker;
               Sdnctl.Arp_proxy.create tracker;
               Sdnctl.L2_learning.create ();
             ]);
        let h0 = Harmless.Deployment.host d 0 in
        (* h1 has never spoken: the proxy knows nothing, flooding works. *)
        Host.send h0
          (Packet.arp_request ~src_mac:(Host.mac h0) ~src_ip:(Host.ip h0)
             ~target_ip:(Harmless.Deployment.host_ip 1));
        Experiments_lib.Common.run_for engine (Sim_time.ms 50);
        check Alcotest.bool "resolved the old way" true
          (List.exists
             (fun (ip, _) -> Ipv4_addr.equal ip (Harmless.Deployment.host_ip 1))
             (Host.arp_cache h0)));
  ]

let suite =
  [
    ("inventory.port_security", security_tests);
    ("inventory.tracker", tracker_tests);
    ("inventory.arp_proxy", arp_proxy_tests);
  ]
