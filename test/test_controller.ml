open Simnet
open Openflow
open Netpkt

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let mac i = Mac_addr.make_local i

(* A controller rig: one plain OpenFlow switch with [n] recording stubs. *)
let rig ?(ports = 4) apps =
  let engine = Engine.create () in
  let sw = Softswitch.Soft_switch.create engine ~name:"sw" ~ports () in
  let received = Array.make ports [] in
  let stubs =
    Array.init ports (fun i ->
        let n = Node.create engine ~name:(Printf.sprintf "h%d" i) ~ports:1 in
        Node.set_handler n (fun _ ~in_port:_ pkt ->
            received.(i) <- pkt :: received.(i));
        ignore (Link.connect (n, 0) (Softswitch.Soft_switch.node sw, i));
        n)
  in
  let ctrl = Sdnctl.Controller.create engine () in
  List.iter (Sdnctl.Controller.add_app ctrl) apps;
  let dpid = Sdnctl.Controller.attach_switch ctrl sw in
  Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 5));
  let send i pkt = Node.transmit stubs.(i) ~port:0 pkt in
  (engine, sw, ctrl, dpid, send, received)

let udp_between i j =
  Packet.udp ~dst:(mac (j + 1)) ~src:(mac (i + 1))
    ~ip_src:(Ipv4_addr.of_octets 10 0 0 (i + 1))
    ~ip_dst:(Ipv4_addr.of_octets 10 0 0 (j + 1))
    ~src_port:(5000 + i) ~dst_port:(6000 + j) "app test payload"

let channel_tests =
  [
    tc "handshake triggers switch_up exactly once" (fun () ->
        let ups = ref 0 in
        let app =
          {
            (Sdnctl.Controller.no_op_app "probe") with
            Sdnctl.Controller.switch_up = (fun _ _ -> incr ups);
          }
        in
        let _ = rig [ app ] in
        check Alcotest.int "once" 1 !ups);
    tc "messages are delayed by channel latency" (fun () ->
        let engine = Engine.create () in
        let sw = Softswitch.Soft_switch.create engine ~name:"sw" ~ports:1 () in
        let arrived_at = ref Sim_time.zero in
        let ch =
          Sdnctl.Channel.connect engine ~latency:(Sim_time.us 500) ~switch:sw
            ~to_controller:(fun _ -> arrived_at := Engine.now engine)
            ()
        in
        Sdnctl.Channel.to_switch ch Of_message.Features_request;
        Engine.run engine;
        (* request: 500us there; reply: 500us back *)
        check Alcotest.int "1ms round trip" (Sim_time.ms 1)
          (Sim_time.to_ns !arrived_at));
  ]

let error_tests =
  [
    tc "flow-mod to a bad table surfaces as an error" (fun () ->
        let engine, _, ctrl, dpid, _, _ = rig [] in
        Sdnctl.Controller.install ctrl dpid
          (Of_message.add_flow ~table_id:42 ~match_:Of_match.any []);
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 10));
        check Alcotest.bool "error recorded" true
          (Sdnctl.Controller.errors_received ctrl <> []));
    tc "flow_stats callback fires" (fun () ->
        let engine, _, ctrl, dpid, _, _ = rig [] in
        Sdnctl.Controller.install ctrl dpid
          (Of_message.add_flow ~match_:Of_match.any []);
        let got = ref (-1) in
        Sdnctl.Controller.flow_stats ctrl dpid ~on_reply:(fun stats ->
            got := List.length stats);
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 10));
        check Alcotest.int "one entry" 1 !got);
  ]

let l2_tests =
  [
    tc "first packet floods, reply unicasts, then hardware path" (fun () ->
        let engine, sw, ctrl, _, send, received = rig [ Sdnctl.L2_learning.create () ] in
        send 0 (udp_between 0 1);
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 20));
        check Alcotest.int "flooded to 1" 1 (List.length received.(1));
        check Alcotest.int "flooded to 2" 1 (List.length received.(2));
        send 1 (udp_between 1 0);
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 40));
        check Alcotest.int "unicast back" 1 (List.length received.(0));
        check Alcotest.int "2 saw nothing new" 1 (List.length received.(2));
        (* third packet 0->1: dst now known, installs the eth_dst flow *)
        send 0 (udp_between 0 1);
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 60));
        check Alcotest.int "delivered" 2 (List.length received.(1));
        (* fourth packet rides the installed flow: no further packet-in *)
        let before = Sdnctl.Controller.packet_ins_received ctrl in
        send 0 (udp_between 0 1);
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 80));
        check Alcotest.int "no new packet-in" before
          (Sdnctl.Controller.packet_ins_received ctrl);
        check Alcotest.int "delivered in hardware" 3 (List.length received.(1));
        check Alcotest.bool "flows installed" true
          (Flow_table.size (Pipeline.table (Softswitch.Soft_switch.pipeline sw) 0) >= 2));
    tc "follows a moved host and forgets an aged one" (fun () ->
        let engine, sw, ctrl, dpid, _, received = rig ~ports:3 [] in
        (* Called directly, so this app never saw the switch come up. *)
        let app = Sdnctl.L2_learning.create ~idle_timeout_s:10 () in
        let packet_in ~in_port src dst =
          ignore
            (app.Sdnctl.Controller.packet_in ctrl dpid ~in_port
               Of_message.No_match (udp_between src dst))
        in
        let settle () =
          Engine.run engine ~until:(Sim_time.add (Engine.now engine) (Sim_time.ms 5))
        in
        let rule_for m =
          List.filter_map
            (fun (e : Flow_entry.t) ->
              match e.Flow_entry.match_.Of_match.eth_dst with
              | Some { Of_match.value; _ } when Mac_addr.equal value m ->
                  Some e.Flow_entry.instructions
              | _ -> None)
            (Flow_table.entries (Pipeline.table (Softswitch.Soft_switch.pipeline sw) 0))
        in
        packet_in ~in_port:0 0 1;
        packet_in ~in_port:1 1 0;
        settle ();
        check Alcotest.bool "rule to host 0's first port" true
          (rule_for (mac 1)
          = [ [ Flow_entry.Apply_actions [ Of_action.output 0 ] ] ]);
        (* host 0 moves to port 2 *)
        packet_in ~in_port:2 0 1;
        let on_0 = List.length received.(0) and on_2 = List.length received.(2) in
        packet_in ~in_port:1 1 0;
        settle ();
        check Alcotest.bool "rule follows the move" true
          (rule_for (mac 1)
          = [ [ Flow_entry.Apply_actions [ Of_action.output 2 ] ] ]);
        check Alcotest.int "nothing to the old port" on_0 (List.length received.(0));
        check Alcotest.int "unicast to the new port" (on_2 + 1)
          (List.length received.(2));
        (* host 0 stays silent past the idle timeout: it is forgotten *)
        Engine.run engine
          ~until:(Sim_time.add (Engine.now engine) (Sim_time.s 11));
        let on_0 = List.length received.(0) and on_2 = List.length received.(2) in
        packet_in ~in_port:1 1 0;
        settle ();
        check Alcotest.int "aged destination floods to port 0" (on_0 + 1)
          (List.length received.(0));
        check Alcotest.int "and to port 2" (on_2 + 1) (List.length received.(2)));
  ]

let lb_tests =
  [
    tc "flows stick to backends; distinct flows spread" (fun () ->
        let vip_ip = Ipv4_addr.of_octets 10 0 0 100 in
        let vip_mac = mac 100 in
        let backends =
          List.map
            (fun b ->
              {
                Sdnctl.Load_balancer.backend_mac = mac (b + 1);
                backend_ip = Ipv4_addr.of_octets 10 0 0 (b + 1);
                backend_port = b;
              })
            [ 0; 1 ]
        in
        let app =
          Sdnctl.Load_balancer.create ~vip_ip ~vip_mac ~ingress_port:3 ~backends
        in
        let engine, _, _, _, send, received = rig [ app ] in
        let to_vip sport =
          Packet.tcp ~dst:vip_mac ~src:(mac 50)
            ~ip_src:(Ipv4_addr.of_octets 10 0 0 50) ~ip_dst:vip_ip ~src_port:sport
            ~dst_port:80 "GET"
        in
        (* same flow, three packets: all to one backend *)
        for _ = 1 to 3 do
          send 3 (to_vip 7777)
        done;
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 20));
        let total0 = List.length received.(0) and total1 = List.length received.(1) in
        check Alcotest.int "three delivered" 3 (total0 + total1);
        check Alcotest.bool "sticky" true (total0 = 0 || total1 = 0);
        (* many distinct flows: both backends used, dst rewritten *)
        for sport = 1000 to 1063 do
          send 3 (to_vip sport)
        done;
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 60));
        check Alcotest.bool "backend0 used" true (List.length received.(0) > 0);
        check Alcotest.bool "backend1 used" true (List.length received.(1) > 0);
        List.iter
          (fun (p : Packet.t) ->
            match p.Packet.l3 with
            | Packet.Ip hdr ->
                check Alcotest.string "ip rewritten" "10.0.0.1"
                  (Ipv4_addr.to_string hdr.Ipv4.dst)
            | _ -> ())
          received.(0));
    tc "return traffic rewritten to the VIP" (fun () ->
        let vip_ip = Ipv4_addr.of_octets 10 0 0 100 in
        let vip_mac = mac 100 in
        let backends =
          [
            {
              Sdnctl.Load_balancer.backend_mac = mac 1;
              backend_ip = Ipv4_addr.of_octets 10 0 0 1;
              backend_port = 0;
            };
          ]
        in
        let app =
          Sdnctl.Load_balancer.create ~vip_ip ~vip_mac ~ingress_port:3 ~backends
        in
        let engine, _, _, _, send, received = rig [ app ] in
        send 0
          (Packet.tcp ~dst:(mac 50) ~src:(mac 1)
             ~ip_src:(Ipv4_addr.of_octets 10 0 0 1)
             ~ip_dst:(Ipv4_addr.of_octets 10 0 0 50) ~src_port:80 ~dst_port:7777
             "HTTP/1.1 200 OK");
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 20));
        match received.(3) with
        | [ p ] -> (
            check Alcotest.bool "src mac = vip" true (Mac_addr.equal p.Packet.src vip_mac);
            match p.Packet.l3 with
            | Packet.Ip hdr ->
                check Alcotest.string "src ip = vip" "10.0.0.100"
                  (Ipv4_addr.to_string hdr.Ipv4.src)
            | _ -> Alcotest.fail "not ip")
        | l -> Alcotest.failf "ingress got %d" (List.length l));
  ]

let dmz_tests =
  [
    tc "allows listed pairs both ways, blocks the rest" (fun () ->
        let vm i =
          {
            Sdnctl.Dmz.vm_ip = Ipv4_addr.of_octets 10 0 0 (i + 1);
            vm_mac = mac (i + 1);
            vm_port = i;
          }
        in
        let policy =
          {
            Sdnctl.Dmz.vms = List.init 4 vm;
            allowed = [ (Ipv4_addr.of_octets 10 0 0 1, Ipv4_addr.of_octets 10 0 0 2) ];
          }
        in
        let engine, _, _, _, send, received = rig [ Sdnctl.Dmz.create policy ] in
        send 0 (udp_between 0 1);
        send 1 (udp_between 1 0);
        send 0 (udp_between 0 2);
        send 2 (udp_between 2 3);
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 20));
        check Alcotest.int "0->1 allowed" 1 (List.length received.(1));
        check Alcotest.int "1->0 allowed" 1 (List.length received.(0));
        check Alcotest.int "others blocked" 0 (List.length received.(2));
        check Alcotest.int "others blocked'" 0 (List.length received.(3)));
    tc "arp still floods under dmz" (fun () ->
        let vm i =
          {
            Sdnctl.Dmz.vm_ip = Ipv4_addr.of_octets 10 0 0 (i + 1);
            vm_mac = mac (i + 1);
            vm_port = i;
          }
        in
        let policy = { Sdnctl.Dmz.vms = List.init 2 vm; allowed = [] } in
        let engine, _, _, _, send, received = rig [ Sdnctl.Dmz.create policy ] in
        send 0
          (Packet.arp_request ~src_mac:(mac 1)
             ~src_ip:(Ipv4_addr.of_octets 10 0 0 1)
             ~target_ip:(Ipv4_addr.of_octets 10 0 0 2));
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 20));
        check Alcotest.bool "arp delivered" true (List.length received.(1) >= 1));
    tc "unknown vm in policy rejected at construction" (fun () ->
        let policy =
          {
            Sdnctl.Dmz.vms = [];
            allowed = [ (Ipv4_addr.of_octets 1 1 1 1, Ipv4_addr.of_octets 2 2 2 2) ];
          }
        in
        check Alcotest.bool "raises" true
          (try ignore (Sdnctl.Dmz.create policy); false
           with Invalid_argument _ -> true));
  ]

let pc_tests =
  [
    tc "proactive block installs drop rules" (fun () ->
        let user = Ipv4_addr.of_octets 10 0 0 1 in
        let site = Ipv4_addr.of_octets 10 0 0 3 in
        let pc =
          Sdnctl.Parental_control.create
            ~sites:[ ("bad.example", site) ]
            ~blocked:[ (user, "bad.example") ]
            ()
        in
        let engine, _, _, _, send, received =
          rig [ Sdnctl.Parental_control.app pc; Sdnctl.L2_learning.create () ]
        in
        (* user (port 0) sends HTTP to the site host (port 2) *)
        let http =
          Packet.tcp ~dst:(mac 3) ~src:(mac 1) ~ip_src:user ~ip_dst:site
            ~src_port:1234 ~dst_port:80
            (Http_lite.render_request (Http_lite.get ~host:"bad.example" "/"))
        in
        send 0 http;
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 20));
        check Alcotest.int "blocked" 0 (List.length received.(2));
        (* non-HTTP traffic from the same user still flows *)
        send 0 (udp_between 0 2);
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 40));
        check Alcotest.int "udp unaffected" 1 (List.length received.(2)));
    tc "reactive sniffing blocks unknown sites by Host header" (fun () ->
        let user = Ipv4_addr.of_octets 10 0 0 1 in
        let pc =
          Sdnctl.Parental_control.create ~sites:[]
            ~blocked:[ (user, "sneaky.example") ]
            ()
        in
        let engine, sw, _, _, send, received =
          rig [ Sdnctl.Parental_control.app pc; Sdnctl.L2_learning.create () ]
        in
        let http ~server host =
          Packet.tcp ~dst:(mac (server + 1)) ~src:(mac 1) ~ip_src:user
            ~ip_dst:(Ipv4_addr.of_octets 10 0 0 (server + 1)) ~src_port:1234
            ~dst_port:80
            (Http_lite.render_request (Http_lite.get ~host "/"))
        in
        send 0 (http ~server:2 "sneaky.example");
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 20));
        check Alcotest.int "sniffed and dropped" 0 (List.length received.(2));
        check Alcotest.int "one drop pinned above the compiled band" 1
          (List.length
             (List.filter
                (fun (e : Flow_entry.t) ->
                  e.Flow_entry.priority = Policy.Compile.ceiling)
                (Flow_table.entries
                   (Pipeline.table (Softswitch.Soft_switch.pipeline sw) 0))));
        (* an allowed Host on a *different* server flows through; the same
           server IP stays collaterally blocked by the pinned drop rule *)
        send 0 (http ~server:3 "fine.example");
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 40));
        check Alcotest.int "allowed host forwarded" 1 (List.length received.(3)));
    tc "block and unblock at runtime" (fun () ->
        let user = Ipv4_addr.of_octets 10 0 0 1 in
        let site = Ipv4_addr.of_octets 10 0 0 3 in
        let pc =
          Sdnctl.Parental_control.create ~sites:[ ("x.example", site) ] ~blocked:[] ()
        in
        let engine, _, ctrl, _, send, received =
          rig [ Sdnctl.Parental_control.app pc; Sdnctl.L2_learning.create () ]
        in
        let http () =
          Packet.tcp ~dst:(mac 3) ~src:(mac 1) ~ip_src:user ~ip_dst:site
            ~src_port:1234 ~dst_port:80
            (Http_lite.render_request (Http_lite.get ~host:"x.example" "/"))
        in
        send 0 (http ());
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 20));
        check Alcotest.int "initially allowed" 1 (List.length received.(2));
        Sdnctl.Parental_control.block pc ctrl ~user ~host:"x.example";
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 25));
        send 0 (http ());
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 45));
        check Alcotest.int "now blocked" 1 (List.length received.(2));
        Sdnctl.Parental_control.unblock pc ctrl ~user ~host:"x.example";
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 50));
        send 0 (http ());
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 70));
        check Alcotest.int "allowed again" 2 (List.length received.(2)));
    tc "block and unblock leave exactly the compiled table" (fun () ->
        let user = Ipv4_addr.of_octets 10 0 0 1 in
        let sniffed = Ipv4_addr.of_octets 10 0 0 2 in
        let site = Ipv4_addr.of_octets 10 0 0 3 in
        let server = Ipv4_addr.of_octets 10 0 0 4 in
        let pc =
          Sdnctl.Parental_control.create ~sites:[ ("x.example", site) ]
            ~blocked:[ (sniffed, "sneaky.example") ]
            ()
        in
        let engine, sw, ctrl, _, send, _ = rig [ Sdnctl.Parental_control.app pc ] in
        let render priority match_ actions =
          Format.asprintf "%d %a -> %a" priority Of_match.pp match_
            Of_action.pp_list actions
        in
        let installed () =
          List.sort compare
            (List.map
               (fun (e : Flow_entry.t) ->
                 render e.Flow_entry.priority e.Flow_entry.match_
                   (Flow_entry.actions e))
               (Flow_table.entries
                  (Pipeline.table (Softswitch.Soft_switch.pipeline sw) 0)))
        in
        let compiled () =
          List.map
            (fun (fm : Of_message.flow_mod) ->
              render fm.Of_message.priority fm.Of_message.match_
                (Flow_entry.actions
                   (Flow_entry.make ~match_:fm.Of_message.match_
                      fm.Of_message.instructions)))
            (List.filter_map
               (function Of_message.Flow_mod fm -> Some fm | _ -> None)
               (Policy.Compile.messages
                  (Policy.Compile.compile (Sdnctl.Parental_control.fragment pc))))
        in
        (* A sniffed GET to a blocked host pins an exact drop at the
           ceiling, outside the compiled band. *)
        send 1
          (Packet.tcp ~dst:(mac 4) ~src:(mac 2) ~ip_src:sniffed ~ip_dst:server
             ~src_port:1234 ~dst_port:80
             (Http_lite.render_request (Http_lite.get ~host:"sneaky.example" "/")));
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 10));
        let pinned =
          [
            render Policy.Compile.ceiling
              Of_match.(
                any |> eth_type 0x0800 |> ip_proto 6
                |> ip_src (Ipv4_addr.Prefix.make sniffed 32)
                |> ip_dst (Ipv4_addr.Prefix.make server 32)
                |> l4_dst 80)
              [ Of_action.Drop ];
          ]
        in
        let before = compiled () in
        check Alcotest.(list string) "compile plus the pinned drop"
          (List.sort compare (before @ pinned)) (installed ());
        Sdnctl.Parental_control.block pc ctrl ~user ~host:"x.example";
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 15));
        let blocked = compiled () in
        check Alcotest.(list string) "the new compile plus the pinned drop"
          (List.sort compare (blocked @ pinned)) (installed ());
        Sdnctl.Parental_control.unblock pc ctrl ~user ~host:"x.example";
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 20));
        let now = installed () in
        check Alcotest.(list string) "none of the blocked compile's rules remain" []
          (List.filter
             (fun r -> List.mem r now && not (List.mem r before))
             blocked);
        check Alcotest.(list string) "back to the first compile plus the pin"
          (List.sort compare (before @ pinned)) now);
  ]

let suite =
  [
    ("controller.channel", channel_tests @ error_tests);
    ("controller.l2", l2_tests);
    ("controller.load_balancer", lb_tests);
    ("controller.dmz", dmz_tests);
    ("controller.parental_control", pc_tests);
  ]
