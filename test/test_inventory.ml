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

let suite = [ ("inventory.port_security", security_tests) ]
