open Simnet
open Ethswitch
open Netpkt

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let mac i = Mac_addr.make_local i

let link_tests =
  [
    tc "lossy link drops roughly the configured fraction" (fun () ->
        let engine = Engine.create () in
        let a = Node.create engine ~name:"a" ~ports:1 in
        let b = Node.create engine ~name:"b" ~ports:1 in
        let got = ref 0 in
        Node.set_handler b (fun _ ~in_port:_ _ -> incr got);
        let cfg = Link.config ~loss:0.2 ~impair_seed:3 () in
        let link = Link.connect ~a_to_b:cfg ~b_to_a:cfg (a, 0) (b, 0) in
        let pkt =
          Packet.udp ~dst:(mac 2) ~src:(mac 1)
            ~ip_src:(Ipv4_addr.of_string "10.0.0.1")
            ~ip_dst:(Ipv4_addr.of_string "10.0.0.2") ~src_port:1 ~dst_port:2 "x"
        in
        for _ = 1 to 2000 do
          Node.transmit a ~port:0 pkt
        done;
        Engine.run engine;
        let stats = Link.stats_a_to_b link in
        check Alcotest.int "conservation" 2000 (!got + stats.Link.drops_loss);
        check Alcotest.bool "~20% lost" true
          (stats.Link.drops_loss > 300 && stats.Link.drops_loss < 500));
    tc "jitter spreads arrivals but keeps them past base propagation" (fun () ->
        let engine = Engine.create () in
        let a = Node.create engine ~name:"a" ~ports:1 in
        let b = Node.create engine ~name:"b" ~ports:1 in
        let arrivals = ref [] in
        Node.set_handler b (fun _ ~in_port:_ _ ->
            arrivals := Sim_time.to_ns (Engine.now engine) :: !arrivals);
        let cfg =
          Link.config ~propagation:(Sim_time.us 10) ~jitter:(Sim_time.us 20)
            ~impair_seed:5 ()
        in
        ignore (Link.connect ~a_to_b:cfg ~b_to_a:cfg (a, 0) (b, 0));
        let pkt =
          Packet.udp ~dst:(mac 2) ~src:(mac 1)
            ~ip_src:(Ipv4_addr.of_string "10.0.0.1")
            ~ip_dst:(Ipv4_addr.of_string "10.0.0.2") ~src_port:1 ~dst_port:2 "x"
        in
        (* send one packet every 100us so serialization never queues *)
        for i = 0 to 49 do
          Engine.schedule_after engine (i * Sim_time.us 100) (fun () ->
              Node.transmit a ~port:0 pkt)
        done;
        Engine.run engine;
        let delays =
          List.mapi (fun _ t -> t) (List.rev !arrivals)
          |> List.mapi (fun i t -> t - (i * Sim_time.us 100))
        in
        List.iter
          (fun d ->
            check Alcotest.bool "at least base" true (d >= Sim_time.us 10);
            check Alcotest.bool "at most base+jitter+ser" true
              (d <= Sim_time.us 31))
          delays;
        let distinct = List.sort_uniq Int.compare delays in
        check Alcotest.bool "jitter actually varies" true (List.length distinct > 5));
    tc "deterministic given the seed" (fun () ->
        let run () =
          let engine = Engine.create () in
          let a = Node.create engine ~name:"a" ~ports:1 in
          let b = Node.create engine ~name:"b" ~ports:1 in
          let got = ref 0 in
          Node.set_handler b (fun _ ~in_port:_ _ -> incr got);
          let cfg = Link.config ~loss:0.5 ~impair_seed:11 () in
          ignore (Link.connect ~a_to_b:cfg ~b_to_a:cfg (a, 0) (b, 0));
          let pkt =
            Packet.udp ~dst:(mac 2) ~src:(mac 1)
              ~ip_src:(Ipv4_addr.of_string "10.0.0.1")
              ~ip_dst:(Ipv4_addr.of_string "10.0.0.2") ~src_port:1 ~dst_port:2 "x"
          in
          for _ = 1 to 100 do Node.transmit a ~port:0 pkt done;
          Engine.run engine;
          !got
        in
        check Alcotest.int "same outcome" (run ()) (run ()));
  ]

let storm_tests =
  [
    tc "broadcast storm capped; unicast unaffected" (fun () ->
        let engine = Engine.create () in
        let sw = Legacy_switch.create engine ~name:"sw" ~ports:2 ~processing_delay:0 () in
        let received = ref 0 in
        let a = Node.create engine ~name:"a" ~ports:1 in
        let b = Node.create engine ~name:"b" ~ports:1 in
        Node.set_handler b (fun _ ~in_port:_ _ -> incr received);
        ignore (Link.connect (a, 0) (Legacy_switch.node sw, 0));
        ignore (Link.connect (b, 0) (Legacy_switch.node sw, 1));
        Legacy_switch.set_storm_control sw ~port:0 ~pps:(Some 100);
        check Alcotest.(option int) "configured" (Some 100)
          (Legacy_switch.storm_control sw ~port:0);
        (* 1000 broadcasts in 0.1s: only the 10-packet burst allowance
           (100 pps * 100 ms) plus refill (~10) may pass *)
        let bcast =
          Packet.udp ~dst:Mac_addr.broadcast ~src:(mac 1)
            ~ip_src:(Ipv4_addr.of_string "10.0.0.1")
            ~ip_dst:(Ipv4_addr.of_string "10.0.0.255") ~src_port:1 ~dst_port:2 "b"
        in
        for i = 0 to 999 do
          Engine.schedule_after engine (i * Sim_time.us 100) (fun () ->
              Node.transmit a ~port:0 bcast)
        done;
        Engine.run engine;
        check Alcotest.bool "capped" true (!received <= 25);
        check Alcotest.bool "storm drops counted" true
          (Node.drops (Legacy_switch.node sw) Node.Drop_storm >= 975);
        (* unicast (to a learned mac) is not storm-limited *)
        let before = !received in
        Node.transmit b ~port:0
          (Packet.udp ~dst:(mac 9) ~src:(mac 2)
             ~ip_src:(Ipv4_addr.of_string "10.0.0.2")
             ~ip_dst:(Ipv4_addr.of_string "10.0.0.9") ~src_port:1 ~dst_port:2 "u");
        Engine.run engine;
        (* b's frame floods (unknown dst) to port 0 — that flood is from
           port 1 which has no cap *)
        ignore before;
        let ucast =
          Packet.udp ~dst:(mac 2) ~src:(mac 1)
            ~ip_src:(Ipv4_addr.of_string "10.0.0.1")
            ~ip_dst:(Ipv4_addr.of_string "10.0.0.2") ~src_port:1 ~dst_port:2 "u"
        in
        let before = !received in
        for _ = 1 to 50 do Node.transmit a ~port:0 ucast done;
        Engine.run engine;
        check Alcotest.int "all unicast delivered" (before + 50) !received);
    tc "cap removal restores flooding" (fun () ->
        let engine = Engine.create () in
        let sw = Legacy_switch.create engine ~name:"sw" ~ports:2 ~processing_delay:0 () in
        let received = ref 0 in
        let a = Node.create engine ~name:"a" ~ports:1 in
        let b = Node.create engine ~name:"b" ~ports:1 in
        Node.set_handler b (fun _ ~in_port:_ _ -> incr received);
        ignore (Link.connect (a, 0) (Legacy_switch.node sw, 0));
        ignore (Link.connect (b, 0) (Legacy_switch.node sw, 1));
        Legacy_switch.set_storm_control sw ~port:0 ~pps:(Some 10);
        Legacy_switch.set_storm_control sw ~port:0 ~pps:None;
        let bcast =
          Packet.udp ~dst:Mac_addr.broadcast ~src:(mac 1)
            ~ip_src:(Ipv4_addr.of_string "10.0.0.1")
            ~ip_dst:(Ipv4_addr.of_string "10.0.0.255") ~src_port:1 ~dst_port:2 "b"
        in
        for _ = 1 to 100 do Node.transmit a ~port:0 bcast done;
        Engine.run engine;
        check Alcotest.int "uncapped" 100 !received);
  ]



(* ---- SPAN / mirror port ---- *)

let mirror_tests =
  [
    tc "mirror port receives a copy of forwarded traffic" (fun () ->
        let engine = Engine.create () in
        let sw = Legacy_switch.create engine ~name:"sw" ~ports:3 ~processing_delay:0 () in
        let span_frames = ref [] in
        let a = Node.create engine ~name:"a" ~ports:1 in
        let b = Node.create engine ~name:"b" ~ports:1 in
        let span = Node.create engine ~name:"span" ~ports:1 in
        Node.set_handler span (fun _ ~in_port:_ pkt -> span_frames := pkt :: !span_frames);
        ignore (Link.connect (a, 0) (Legacy_switch.node sw, 0));
        ignore (Link.connect (b, 0) (Legacy_switch.node sw, 1));
        ignore (Link.connect (span, 0) (Legacy_switch.node sw, 2));
        Legacy_switch.set_port_mode sw ~port:2 Port_config.Disabled;
        Legacy_switch.set_mirror sw ~dst:(Some 2);
        check Alcotest.(option int) "configured" (Some 2) (Legacy_switch.mirror sw);
        (* learn both, then a unicast a->b *)
        let pkt src dst =
          Packet.udp ~dst ~src ~ip_src:(Ipv4_addr.of_string "10.0.0.1")
            ~ip_dst:(Ipv4_addr.of_string "10.0.0.2") ~src_port:1 ~dst_port:2 "m"
        in
        Node.transmit a ~port:0 (pkt (Mac_addr.make_local 1) (Mac_addr.make_local 2));
        Node.transmit b ~port:0 (pkt (Mac_addr.make_local 2) (Mac_addr.make_local 1));
        Engine.run engine;
        (* every egressed frame (floods to b only since port 2 is disabled,
           plus the unicast back) was mirrored *)
        check Alcotest.bool "span saw traffic" true (List.length !span_frames >= 2);
        List.iter
          (fun (p : Packet.t) ->
            check Alcotest.(option int) "untagged copies" None (Packet.outer_vid p))
          !span_frames;
        (* disabling stops copies *)
        let before = List.length !span_frames in
        Legacy_switch.set_mirror sw ~dst:None;
        Node.transmit a ~port:0 (pkt (Mac_addr.make_local 1) (Mac_addr.make_local 2));
        Engine.run engine;
        check Alcotest.int "no more copies" before (List.length !span_frames));
  ]

let suite =
  [
    ("impairments.link", link_tests);
    ("impairments.storm", storm_tests);
    ("impairments.mirror", mirror_tests);
  ]
