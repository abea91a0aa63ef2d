open Simnet
open Ethswitch
open Netpkt

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let prop name ?(count = 500) gen ~print f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen f)

(* ---- MAC table ---- *)

let mac i = Mac_addr.make_local i

type mac_op =
  | Learn of int * int * int (* vlan, mac, port *)
  | Lookup of int * int
  | Count_port of int
  | Flush_port of int
  | Flush

(* Few VLANs and MACs, so keys repeat and collide in a small index;
   MAC 0 stands for broadcast, which is never learned.  Most scripts run
   at capacities 1-8 and short aging; the rest hold more than the
   initial 16 entries, so the table grows and rehashes mid-script. *)
let mac_vlans = [| 0; 1; 2; 4094 |]
let script_mac i = if i = 0 then Mac_addr.broadcast else mac i

let mac_script_gen =
  let open QCheck2.Gen in
  let vlan = map (fun i -> mac_vlans.(i)) (int_bound 3) in
  let addr = int_bound 12 and port = int_bound 3 in
  let op =
    frequency
      [
        (6, map3 (fun v m p -> Learn (v, m, p)) vlan addr port);
        (6, map2 (fun v m -> Lookup (v, m)) vlan addr);
        (2, map (fun p -> Count_port p) port);
        (1, map (fun p -> Flush_port p) port);
        (1, pure Flush);
      ]
  in
  let small = pair (int_range 1 8) (int_range 1 20)
  and growing = pair (int_range 17 48) (int_range 200 2000) in
  map2
    (fun (capacity, aging) script -> (capacity, aging, script))
    (frequency [ (3, small); (1, growing) ])
    (list_size (int_range 1 200) (pair (int_bound 6) op))

let print_mac_script (capacity, aging, script) =
  let op = function
    | Learn (v, m, p) -> Printf.sprintf "learn v%d m%d p%d" v m p
    | Lookup (v, m) -> Printf.sprintf "lookup v%d m%d" v m
    | Count_port p -> Printf.sprintf "count_port p%d" p
    | Flush_port p -> Printf.sprintf "flush_port p%d" p
    | Flush -> "flush"
  in
  Printf.sprintf "capacity %d aging %d: %s" capacity aging
    (String.concat "; " (List.map (fun (dt, o) -> Printf.sprintf "+%d %s" dt (op o)) script))

(* The model is a list of (key, port, learned_at), oldest learned first;
   eviction takes the head.  Every op's result and the entry count after
   it must agree with the model's. *)
let mac_table_agrees ~capacity ~aging script =
  let t = Mac_table.create ~capacity ~aging:(Sim_time.ns aging) () in
  let model = ref [] and clock = ref 0 in
  let expired (_, _, at) = !clock - at > aging in
  let rec sweep = function e :: rest when expired e -> sweep rest | l -> l in
  let run = function
    | Learn (v, m, p) ->
        Mac_table.learn t ~now:(Sim_time.of_ns !clock) ~vlan:v ~mac:(script_mac m) ~port:p;
        if m <> 0 then begin
          let others = List.filter (fun (k, _, _) -> k <> (v, m)) !model in
          let kept = if List.length others >= capacity then List.tl others else others in
          model := kept @ [ ((v, m), p, !clock) ]
        end;
        true
    | Lookup (v, m) ->
        let got = Mac_table.lookup t ~now:(Sim_time.of_ns !clock) ~vlan:v ~mac:(script_mac m) in
        let want =
          match List.find_opt (fun (k, _, _) -> k = (v, m)) !model with
          | None -> -1
          | Some e when expired e ->
              model := List.filter (fun (k, _, _) -> k <> (v, m)) !model;
              -1
          | Some (_, p, _) -> p
        in
        got = want
    | Count_port p ->
        model := sweep !model;
        let want = List.length (List.filter (fun (_, q, _) -> q = p) !model) in
        Mac_table.count_port t ~now:(Sim_time.of_ns !clock) ~port:p = want
    | Flush_port p ->
        Mac_table.flush_port t ~port:p;
        model := List.filter (fun (_, q, _) -> q <> p) !model;
        true
    | Flush ->
        Mac_table.flush t;
        model := [];
        true
  in
  List.for_all
    (fun (dt, op) ->
      clock := !clock + dt;
      run op && Mac_table.entry_count t = List.length !model)
    script

let mac_table_tests =
  [
    tc "learn then lookup" (fun () ->
        let t = Mac_table.create () in
        Mac_table.learn t ~now:Sim_time.zero ~vlan:1 ~mac:(mac 1) ~port:3;
        check Alcotest.int "found" 3
          (Mac_table.lookup t ~now:Sim_time.zero ~vlan:1 ~mac:(mac 1)));
    tc "vlan separates address spaces" (fun () ->
        let t = Mac_table.create () in
        Mac_table.learn t ~now:Sim_time.zero ~vlan:1 ~mac:(mac 1) ~port:3;
        check Alcotest.int "other vlan" (-1)
          (Mac_table.lookup t ~now:Sim_time.zero ~vlan:2 ~mac:(mac 1)));
    tc "relearning moves the port" (fun () ->
        let t = Mac_table.create () in
        Mac_table.learn t ~now:Sim_time.zero ~vlan:1 ~mac:(mac 1) ~port:3;
        Mac_table.learn t ~now:Sim_time.zero ~vlan:1 ~mac:(mac 1) ~port:7;
        check Alcotest.int "moved" 7
          (Mac_table.lookup t ~now:Sim_time.zero ~vlan:1 ~mac:(mac 1));
        check Alcotest.int "one entry" 1 (Mac_table.entry_count t));
    tc "aging expires entries" (fun () ->
        let t = Mac_table.create ~aging:(Sim_time.s 10) () in
        Mac_table.learn t ~now:Sim_time.zero ~vlan:1 ~mac:(mac 1) ~port:3;
        let later = Sim_time.of_ns (Sim_time.s 11) in
        check Alcotest.int "expired" (-1)
          (Mac_table.lookup t ~now:later ~vlan:1 ~mac:(mac 1));
        check Alcotest.int "removed" 0 (Mac_table.entry_count t));
    tc "refresh resets aging" (fun () ->
        let t = Mac_table.create ~aging:(Sim_time.s 10) () in
        Mac_table.learn t ~now:Sim_time.zero ~vlan:1 ~mac:(mac 1) ~port:3;
        let mid = Sim_time.of_ns (Sim_time.s 8) in
        Mac_table.learn t ~now:mid ~vlan:1 ~mac:(mac 1) ~port:3;
        let later = Sim_time.of_ns (Sim_time.s 15) in
        check Alcotest.int "still there" 3
          (Mac_table.lookup t ~now:later ~vlan:1 ~mac:(mac 1)));
    tc "capacity evicts the oldest" (fun () ->
        let t = Mac_table.create ~capacity:3 () in
        for i = 1 to 3 do
          Mac_table.learn t ~now:(Sim_time.of_ns i) ~vlan:1 ~mac:(mac i) ~port:i
        done;
        Mac_table.learn t ~now:(Sim_time.of_ns 10) ~vlan:1 ~mac:(mac 4) ~port:4;
        check Alcotest.int "still 3" 3 (Mac_table.entry_count t);
        check Alcotest.int "oldest gone" (-1)
          (Mac_table.lookup t ~now:(Sim_time.of_ns 10) ~vlan:1 ~mac:(mac 1));
        check Alcotest.int "newest present" 4
          (Mac_table.lookup t ~now:(Sim_time.of_ns 10) ~vlan:1 ~mac:(mac 4)));
    tc "refresh protects from eviction; count_port follows the table" (fun () ->
        let t = Mac_table.create ~capacity:3 () in
        for i = 1 to 3 do
          Mac_table.learn t ~now:(Sim_time.of_ns i) ~vlan:1 ~mac:(mac i) ~port:1
        done;
        (* refreshed: mac 1 is now the most recent, mac 2 the oldest *)
        Mac_table.learn t ~now:(Sim_time.of_ns 4) ~vlan:1 ~mac:(mac 1) ~port:2;
        Mac_table.learn t ~now:(Sim_time.of_ns 5) ~vlan:1 ~mac:(mac 4) ~port:2;
        let at = Sim_time.of_ns 5 in
        check Alcotest.(list int) "mac 2 evicted"
          [ 2; -1; 1; 2 ]
          (List.map (fun i -> Mac_table.lookup t ~now:at ~vlan:1 ~mac:(mac i)) [ 1; 2; 3; 4 ]);
        check Alcotest.(pair int int) "per-port counts" (1, 2)
          (Mac_table.count_port t ~now:at ~port:1, Mac_table.count_port t ~now:at ~port:2);
        Mac_table.flush_port t ~port:2;
        check Alcotest.(pair int int) "after flush_port" (1, 0)
          (Mac_table.count_port t ~now:at ~port:1, Mac_table.count_port t ~now:at ~port:2);
        (* many refreshes of one entry leave the others evictable in order *)
        for i = 6 to 100 do
          Mac_table.learn t ~now:(Sim_time.of_ns i) ~vlan:1 ~mac:(mac 5) ~port:3
        done;
        Mac_table.learn t ~now:(Sim_time.of_ns 101) ~vlan:1 ~mac:(mac 6) ~port:3;
        Mac_table.learn t ~now:(Sim_time.of_ns 102) ~vlan:1 ~mac:(mac 7) ~port:3;
        check Alcotest.(list int) "oldest first"
          [ -1; 3; 3; 3 ]
          (List.map
             (fun i -> Mac_table.lookup t ~now:(Sim_time.of_ns 102) ~vlan:1 ~mac:(mac i))
             [ 3; 5; 6; 7 ]);
        check Alcotest.int "entries" 3 (Mac_table.entry_count t);
        Mac_table.flush t;
        check Alcotest.int "flushed" 0
          (Mac_table.count_port t ~now:(Sim_time.of_ns 102) ~port:3));
    tc "multicast sources not learned" (fun () ->
        let t = Mac_table.create () in
        Mac_table.learn t ~now:Sim_time.zero ~vlan:1 ~mac:Mac_addr.broadcast ~port:1;
        check Alcotest.int "ignored" 0 (Mac_table.entry_count t));
    tc "flush_port forgets selectively" (fun () ->
        let t = Mac_table.create () in
        Mac_table.learn t ~now:Sim_time.zero ~vlan:1 ~mac:(mac 1) ~port:1;
        Mac_table.learn t ~now:Sim_time.zero ~vlan:1 ~mac:(mac 2) ~port:2;
        Mac_table.flush_port t ~port:1;
        check Alcotest.int "gone" (-1)
          (Mac_table.lookup t ~now:Sim_time.zero ~vlan:1 ~mac:(mac 1));
        check Alcotest.int "kept" 2
          (Mac_table.lookup t ~now:Sim_time.zero ~vlan:1 ~mac:(mac 2)));
    prop "agrees with a list-based LRU model" mac_script_gen ~print:print_mac_script
      (fun (capacity, aging, script) -> mac_table_agrees ~capacity ~aging script);
  ]

(* ---- Port configuration ---- *)

let port_config_tests =
  [
    tc "access ingress classification" (fun () ->
        let m = Port_config.Access 5 in
        check Alcotest.int "untagged" 5
          (Port_config.classify_ingress m ~tag_vid:(-1));
        check Alcotest.int "matching tag" 5
          (Port_config.classify_ingress m ~tag_vid:5);
        check Alcotest.int "foreign tag dropped" (-1)
          (Port_config.classify_ingress m ~tag_vid:6));
    tc "trunk ingress classification" (fun () ->
        let m =
          Port_config.Trunk { native = Some 1; allowed = Port_config.Only [ 10; 20; 40 ] }
        in
        check Alcotest.int "untagged -> native" 1
          (Port_config.classify_ingress m ~tag_vid:(-1));
        check Alcotest.int "allowed" 10
          (Port_config.classify_ingress m ~tag_vid:10);
        check Alcotest.int "allowed at the tail" 40
          (Port_config.classify_ingress m ~tag_vid:40);
        check Alcotest.int "not allowed" (-1)
          (Port_config.classify_ingress m ~tag_vid:30);
        check Alcotest.int "above every allowed" (-1)
          (Port_config.classify_ingress m ~tag_vid:41);
        check Alcotest.bool "tail tags on egress" true
          (Port_config.egress_encap m ~vlan:40 = Port_config.Tagged);
        check Alcotest.bool "outside on egress" true
          (Port_config.egress_encap m ~vlan:41 = Port_config.Not_member));
    tc "trunk without native drops untagged" (fun () ->
        let m = Port_config.Trunk { native = None; allowed = Port_config.All } in
        check Alcotest.int "dropped" (-1)
          (Port_config.classify_ingress m ~tag_vid:(-1)));
    tc "egress encapsulation" (fun () ->
        let access = Port_config.Access 5 in
        let trunk =
          Port_config.Trunk { native = Some 1; allowed = Port_config.Only [ 10 ] }
        in
        check Alcotest.bool "access member untagged" true
          (Port_config.egress_encap access ~vlan:5 = Port_config.Untagged);
        check Alcotest.bool "access non-member" true
          (Port_config.egress_encap access ~vlan:6 = Port_config.Not_member);
        check Alcotest.bool "trunk tags" true
          (Port_config.egress_encap trunk ~vlan:10 = Port_config.Tagged);
        check Alcotest.bool "trunk native untagged" true
          (Port_config.egress_encap trunk ~vlan:1 = Port_config.Untagged);
        check Alcotest.bool "trunk non-member" true
          (Port_config.egress_encap trunk ~vlan:99 = Port_config.Not_member));
    tc "disabled port is inert" (fun () ->
        check Alcotest.int "ingress" (-1)
          (Port_config.classify_ingress Port_config.Disabled ~tag_vid:(-1));
        check Alcotest.bool "egress" true
          (Port_config.egress_encap Port_config.Disabled ~vlan:1 = Port_config.Not_member));
  ]

(* ---- The switch dataplane ---- *)

(* A port harness: stub nodes recording what each port delivers. *)
let switch_rig ~ports =
  let engine = Engine.create () in
  let sw = Legacy_switch.create engine ~name:"sw" ~ports () in
  let received = Array.make ports [] in
  let stubs =
    Array.init ports (fun i ->
        let n = Node.create engine ~name:(Printf.sprintf "stub%d" i) ~ports:1 in
        Node.set_handler n (fun _ ~in_port:_ pkt ->
            received.(i) <- pkt :: received.(i));
        ignore (Link.connect (n, 0) (Legacy_switch.node sw, i));
        n)
  in
  let send i pkt = Node.transmit stubs.(i) ~port:0 pkt in
  (engine, sw, send, received)

let udp_pkt ?vlans ~from_mac ~to_mac () =
  Packet.udp ?vlans ~dst:to_mac ~src:from_mac
    ~ip_src:(Ipv4_addr.of_string "10.0.0.1")
    ~ip_dst:(Ipv4_addr.of_string "10.0.0.2") ~src_port:1 ~dst_port:2 "test data"

let switch_tests =
  [
    tc "forwarding a tagged frame to an access port allocates at most 5 words"
      (fun () ->
        let engine = Engine.create () in
        let sw =
          Legacy_switch.create engine ~name:"sw" ~ports:2
            ~processing_delay:0 ()
        in
        Legacy_switch.set_port_mode sw ~port:0
          (Port_config.Trunk { native = None; allowed = Port_config.All });
        Legacy_switch.set_port_mode sw ~port:1 (Port_config.Access 10);
        let node = Legacy_switch.node sw in
        (* learn the destination on the access port *)
        Node.deliver node ~port:1 (udp_pkt ~from_mac:(mac 2) ~to_mac:(mac 1) ());
        let tagged =
          udp_pkt ~vlans:[ Vlan.make 10 ] ~from_mac:(mac 1) ~to_mac:(mac 2) ()
        in
        Node.deliver node ~port:0 tagged;
        check Alcotest.int "forwarded" 1 (Legacy_switch.forwarded sw);
        let before = Gc.minor_words () in
        for _ = 1 to 1_000 do
          Node.deliver node ~port:0 tagged
        done;
        let words = int_of_float (Gc.minor_words () -. before) / 1_000 in
        check Alcotest.int "all forwarded" 1_001 (Legacy_switch.forwarded sw);
        (* strip_vlan's record; the MAC lookup allocates nothing *)
        if words > 5 then
          Alcotest.failf "%d minor words per forwarded frame (bound 5)" words);
    tc "a tagged egress allocates only the pushed frame" (fun () ->
        let engine = Engine.create () in
        let sw =
          Legacy_switch.create engine ~name:"sw" ~ports:2
            ~processing_delay:0 ()
        in
        Legacy_switch.set_port_mode sw ~port:0
          (Port_config.Trunk { native = None; allowed = Port_config.All });
        Legacy_switch.set_port_mode sw ~port:1 (Port_config.Access 10);
        let node = Legacy_switch.node sw in
        (* learn the destination on the trunk *)
        Node.deliver node ~port:0
          (udp_pkt ~vlans:[ Vlan.make 10 ] ~from_mac:(mac 2) ~to_mac:(mac 1) ());
        let untagged = udp_pkt ~from_mac:(mac 1) ~to_mac:(mac 2) () in
        Node.deliver node ~port:1 untagged;
        check Alcotest.int "forwarded" 1 (Legacy_switch.forwarded sw);
        let per_call f =
          let before = Gc.minor_words () in
          for _ = 1 to 1_000 do
            f ()
          done;
          int_of_float (Gc.minor_words () -. before) / 1_000
        in
        let tag = Vlan.make 10 in
        let pushed =
          per_call (fun () -> ignore (Sys.opaque_identity (Packet.push_vlan tag untagged)))
        in
        let words = per_call (fun () -> Node.deliver node ~port:1 untagged) in
        check Alcotest.int "all forwarded" 1_001 (Legacy_switch.forwarded sw);
        check Alcotest.int "minor words per tagged egress" pushed words);
    tc "a 100k-MAC flood stays O(1) per frame" (fun () ->
        let engine = Engine.create () in
        let sw = Legacy_switch.create engine ~name:"sw" ~ports:2 () in
        (* port security makes every frame count the port's entries too *)
        Legacy_switch.set_port_security sw ~port:0 ~max_macs:(Some 1_000_000);
        let node = Legacy_switch.node sw in
        let started = Sys.time () in
        for i = 1 to 100_000 do
          Node.deliver node ~port:0 (udp_pkt ~from_mac:(mac i) ~to_mac:(mac 0) ());
          if i mod 1000 = 0 then Engine.run engine
        done;
        let cpu_s = Sys.time () -. started in
        check Alcotest.int "table full" 8192
          (Mac_table.entry_count (Legacy_switch.mac_table sw));
        check Alcotest.int "every frame flooded" 100_000
          (Legacy_switch.flooded sw);
        if cpu_s > 2.0 then Alcotest.failf "100k new MACs took %.2f s of CPU" cpu_s);
    tc "one MAC on all 4094 VLANs stays O(1) per frame" (fun () ->
        (* every key shares its 48 low bits: a bucket index that ignores
           the VLAN puts all 4094 in one probe run *)
        let t = Mac_table.create () in
        let started = Sys.time () in
        for round = 0 to 249 do
          for vlan = 1 to 4094 do
            Mac_table.learn t ~now:Sim_time.zero ~vlan ~mac:(mac 1) ~port:(vlan land 7);
            if Mac_table.lookup t ~now:Sim_time.zero ~vlan ~mac:(mac 1) <> vlan land 7 then
              Alcotest.failf "round %d: vlan %d lost" round vlan
          done
        done;
        let cpu_s = Sys.time () -. started in
        check Alcotest.int "one entry per VLAN" 4094 (Mac_table.entry_count t);
        if cpu_s > 2.0 then
          Alcotest.failf "1M learns and lookups over 4094 VLANs took %.2f s of CPU" cpu_s);
    tc "floods unknown destination, then forwards directly" (fun () ->
        let engine, sw, send, received = switch_rig ~ports:4 in
        send 0 (udp_pkt ~from_mac:(mac 1) ~to_mac:(mac 2) ());
        Engine.run engine;
        check Alcotest.int "p1" 1 (List.length received.(1));
        check Alcotest.int "p2" 1 (List.length received.(2));
        check Alcotest.int "p0 nothing" 0 (List.length received.(0));
        send 1 (udp_pkt ~from_mac:(mac 2) ~to_mac:(mac 1) ());
        Engine.run engine;
        check Alcotest.int "reply to p0 only" 1 (List.length received.(0));
        check Alcotest.int "p2 unchanged" 1 (List.length received.(2));
        send 0 (udp_pkt ~from_mac:(mac 1) ~to_mac:(mac 2) ());
        Engine.run engine;
        check Alcotest.int "direct" 2 (List.length received.(1));
        check Alcotest.int "fwd counter" 2
          (Legacy_switch.forwarded sw));
    tc "vlan isolation between access ports" (fun () ->
        let engine, sw, send, received = switch_rig ~ports:4 in
        Legacy_switch.set_port_mode sw ~port:0 (Port_config.Access 10);
        Legacy_switch.set_port_mode sw ~port:1 (Port_config.Access 10);
        Legacy_switch.set_port_mode sw ~port:2 (Port_config.Access 20);
        Legacy_switch.set_port_mode sw ~port:3 (Port_config.Access 20);
        send 0 (udp_pkt ~from_mac:(mac 1) ~to_mac:Mac_addr.broadcast ());
        Engine.run engine;
        check Alcotest.int "same vlan sees it" 1 (List.length received.(1));
        check Alcotest.int "other vlan isolated" 0 (List.length received.(2));
        check Alcotest.int "other vlan isolated'" 0 (List.length received.(3)));
    tc "trunk tags egress and untags ingress" (fun () ->
        let engine, sw, send, received = switch_rig ~ports:3 in
        Legacy_switch.set_port_mode sw ~port:0 (Port_config.Access 10);
        Legacy_switch.set_port_mode sw ~port:1 (Port_config.Access 10);
        Legacy_switch.set_port_mode sw ~port:2
          (Port_config.Trunk { native = None; allowed = Port_config.Only [ 10 ] });
        send 0 (udp_pkt ~from_mac:(mac 1) ~to_mac:Mac_addr.broadcast ());
        Engine.run engine;
        (match received.(2) with
        | [ pkt ] ->
            check Alcotest.(option int) "tagged 10" (Some 10) (Packet.outer_vid pkt)
        | l -> Alcotest.failf "trunk got %d" (List.length l));
        send 2
          (udp_pkt ~vlans:[ Vlan.make 10 ] ~from_mac:(mac 3)
             ~to_mac:Mac_addr.broadcast ());
        Engine.run engine;
        match received.(1) with
        | pkt :: _ ->
            check Alcotest.(option int) "untagged" None (Packet.outer_vid pkt)
        | [] -> Alcotest.fail "access port got nothing");
    tc "trunk drops disallowed vlans" (fun () ->
        let engine, sw, send, received = switch_rig ~ports:2 in
        Legacy_switch.set_port_mode sw ~port:0
          (Port_config.Trunk { native = None; allowed = Port_config.Only [ 10 ] });
        Legacy_switch.set_port_mode sw ~port:1 (Port_config.Access 20);
        send 0
          (udp_pkt ~vlans:[ Vlan.make 20 ] ~from_mac:(mac 1)
             ~to_mac:Mac_addr.broadcast ());
        Engine.run engine;
        check Alcotest.int "dropped" 0 (List.length received.(1));
        check Alcotest.int "counted" 1
          (Node.drops (Legacy_switch.node sw) Node.Drop_ingress_vlan));
    tc "tagged frame on access port with foreign vid dropped" (fun () ->
        let engine, sw, send, received = switch_rig ~ports:2 in
        Legacy_switch.set_port_mode sw ~port:0 (Port_config.Access 10);
        Legacy_switch.set_port_mode sw ~port:1 (Port_config.Access 10);
        send 0
          (udp_pkt ~vlans:[ Vlan.make 99 ] ~from_mac:(mac 1)
             ~to_mac:Mac_addr.broadcast ());
        Engine.run engine;
        check Alcotest.int "dropped" 0 (List.length received.(1)));
    tc "frame to the port it lives on is filtered" (fun () ->
        let engine, sw, send, received = switch_rig ~ports:2 in
        send 0 (udp_pkt ~from_mac:(mac 1) ~to_mac:(mac 9) ());
        send 0 (udp_pkt ~from_mac:(mac 2) ~to_mac:(mac 9) ());
        Engine.run engine;
        send 0 (udp_pkt ~from_mac:(mac 1) ~to_mac:(mac 2) ());
        Engine.run engine;
        check Alcotest.int "same-port filtered" 1
          (Node.drops (Legacy_switch.node sw) Node.Drop_same_port);
        check Alcotest.int "nothing reflected" 0 (List.length received.(0)));
    tc "reconfiguration flushes learned entries" (fun () ->
        let engine, sw, send, _received = switch_rig ~ports:2 in
        send 0 (udp_pkt ~from_mac:(mac 1) ~to_mac:(mac 9) ());
        Engine.run engine;
        check Alcotest.int "learned" 1
          (Mac_table.entry_count (Legacy_switch.mac_table sw));
        Legacy_switch.set_port_mode sw ~port:0 (Port_config.Access 42);
        check Alcotest.int "flushed" 0
          (Mac_table.entry_count (Legacy_switch.mac_table sw)));
    tc "vlans_in_use reflects configuration" (fun () ->
        let _, sw, _, _ = switch_rig ~ports:3 in
        Legacy_switch.set_port_mode sw ~port:0 (Port_config.Access 10);
        Legacy_switch.set_port_mode sw ~port:1
          (Port_config.Trunk { native = Some 1; allowed = Port_config.Only [ 10; 30 ] });
        Legacy_switch.set_port_mode sw ~port:2 Port_config.Disabled;
        check Alcotest.(list int) "vlans" [ 1; 10; 30 ]
          (Legacy_switch.vlans_in_use sw));
    tc "disabled port neither sends nor receives" (fun () ->
        let engine, sw, send, received = switch_rig ~ports:3 in
        Legacy_switch.set_port_mode sw ~port:2 Port_config.Disabled;
        send 0 (udp_pkt ~from_mac:(mac 1) ~to_mac:Mac_addr.broadcast ());
        Engine.run engine;
        check Alcotest.int "p1 flooded" 1 (List.length received.(1));
        check Alcotest.int "p2 silent" 0 (List.length received.(2));
        send 2 (udp_pkt ~from_mac:(mac 3) ~to_mac:Mac_addr.broadcast ());
        Engine.run engine;
        check Alcotest.int "ingress dropped" 1 (List.length received.(1)));
  ]

(* ---- Metrics export ---- *)

let metrics_tests =
  [
    tc "publish_metrics names the non-zero drop reasons and outcomes" (fun () ->
        let engine = Engine.create () in
        let sw = Legacy_switch.create engine ~name:"sw" ~ports:3 ~processing_delay:0 () in
        let stub i =
          let n = Node.create engine ~name:(Printf.sprintf "stub%d" i) ~ports:1 in
          ignore (Link.connect (n, 0) (Legacy_switch.node sw, i));
          n
        in
        let a = stub 0 and b = stub 1 (* port 2 stays unattached *) in
        (* a one-token bucket: the first broadcast floods, the second is a
           storm drop; the flood out of port 2 is an unattached transmit *)
        Legacy_switch.set_storm_control sw ~port:0 ~pps:(Some 10);
        Node.transmit a ~port:0 (udp_pkt ~from_mac:(mac 1) ~to_mac:Mac_addr.broadcast ());
        Node.transmit a ~port:0 (udp_pkt ~from_mac:(mac 1) ~to_mac:Mac_addr.broadcast ());
        Engine.run engine;
        Node.transmit b ~port:0 (udp_pkt ~from_mac:(mac 2) ~to_mac:(mac 1) ());
        Engine.run engine;
        let r = Telemetry.Registry.create () in
        Legacy_switch.publish_metrics ~registry:r sw;
        let samples =
          String.split_on_char '\n' (Telemetry.Registry.to_prometheus r)
          |> List.filter (fun l -> l <> "" && l.[0] <> '#')
        in
        let value name =
          List.find_map
            (fun l ->
              match String.split_on_char ' ' l with
              | [ series; v ] when series = name ^ "{device=\"sw\"}" -> Some v
              | _ -> None)
            samples
        in
        check Alcotest.(list (option string)) "drop, outcome and transmit gauges"
          [ Some "1"; Some "1"; Some "1"; Some "1" ]
          (List.map value
             [ "ethswitch_drop_storm"; "ethswitch_flood"; "ethswitch_fwd";
               "ethswitch_tx_drop_unattached" ]);
        check Alcotest.(list string) "no zero-valued reason"
          [ "ethswitch_drop_storm{device=\"sw\"} 1";
            "ethswitch_tx_drop_unattached{device=\"sw\"} 1" ]
          (List.filter
             (fun l ->
               let name = List.hd (String.split_on_char '{' l) in
               List.mem "drop" (String.split_on_char '_' name))
             samples));
  ]

let suite =
  [
    ("ethswitch.mac_table", mac_table_tests);
    ("ethswitch.port_config", port_config_tests);
    ("ethswitch.switch", switch_tests);
    ("ethswitch.metrics", metrics_tests);
  ]
