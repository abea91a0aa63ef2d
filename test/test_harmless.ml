open Simnet
open Ethswitch
open Openflow

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let prop name ?(count = 100) gen ~print f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen f)

module H = Harmless

(* ---- Port map ---- *)

let ports_gen =
  QCheck2.Gen.map
    (fun l -> List.sort_uniq Int.compare l)
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 40) (QCheck2.Gen.int_bound 100))

let port_map_tests =
  [
    tc "defaults start at vlan 101" (fun () ->
        let m = H.Port_map.make ~access_ports:[ 0; 1; 2 ] () in
        check Alcotest.(option int) "p0" (Some 101) (H.Port_map.vid_of_access_port m 0);
        check Alcotest.(option int) "p2" (Some 103) (H.Port_map.vid_of_access_port m 2);
        check Alcotest.(option int) "back" (Some 2) (H.Port_map.access_port_of_vid m 103);
        check Alcotest.(option int) "unknown vid" None (H.Port_map.access_port_of_vid m 104));
    tc "non-contiguous ports map in order" (fun () ->
        let m = H.Port_map.make ~access_ports:[ 5; 9; 2 ] () in
        (* order given, not sorted: 5->101, 9->102, 2->103 *)
        check Alcotest.(option int) "5" (Some 101) (H.Port_map.vid_of_access_port m 5);
        check Alcotest.(option int) "9" (Some 102) (H.Port_map.vid_of_access_port m 9);
        check Alcotest.(option int) "2" (Some 103) (H.Port_map.vid_of_access_port m 2);
        check Alcotest.(option int) "logical 1 is port 9" (Some 9)
          (H.Port_map.access_port_of_logical m 1));
    tc "invalid configurations rejected" (fun () ->
        let reject f = try ignore (f ()); false with Invalid_argument _ -> true in
        check Alcotest.bool "empty" true
          (reject (fun () -> H.Port_map.make ~access_ports:[] ()));
        check Alcotest.bool "dup" true
          (reject (fun () -> H.Port_map.make ~access_ports:[ 1; 1 ] ()));
        check Alcotest.bool "vlan 1" true
          (reject (fun () -> H.Port_map.make ~base_vid:1 ~access_ports:[ 0 ] ()));
        check Alcotest.bool "overflow" true
          (reject (fun () -> H.Port_map.make ~base_vid:4094 ~access_ports:[ 0; 1 ] ())));
    prop "bijection between ports, vids and logicals" ports_gen
      ~print:(fun l -> String.concat "," (List.map string_of_int l))
      (fun ports ->
        match H.Port_map.make ~access_ports:ports () with
        | exception Invalid_argument _ -> ports = []
        | m ->
            List.for_all
              (fun p ->
                match H.Port_map.vid_of_access_port m p with
                | Some v -> (
                    H.Port_map.access_port_of_vid m v = Some p
                    &&
                    match H.Port_map.logical_of_access_port m p with
                    | Some l ->
                        H.Port_map.access_port_of_logical m l = Some p
                        && H.Port_map.vid_of_logical m l = Some v
                        && H.Port_map.logical_of_vid m v = Some l
                    | None -> false)
                | None -> false)
              ports);
  ]

(* ---- Translator ---- *)

let translator_tests =
  [
    tc "two rules per managed port" (fun () ->
        let m = H.Port_map.make ~access_ports:[ 0; 1; 2; 3 ] () in
        check Alcotest.int "count" 8 (List.length (H.Translator.rules m)));
    tc "trunk->patch pops, patch->trunk pushes" (fun () ->
        let engine = Engine.create () in
        let m = H.Port_map.make ~access_ports:[ 0; 1 ] () in
        let ss1 =
          Softswitch.Soft_switch.create engine ~name:"ss1" ~ports:3
            ~miss:Softswitch.Soft_switch.Drop_on_miss ()
        in
        H.Translator.install ss1 m;
        let pkt vid =
          Netpkt.Packet.udp
            ~vlans:(match vid with None -> [] | Some v -> [ Netpkt.Vlan.make v ])
            ~dst:(Netpkt.Mac_addr.make_local 2)
            ~src:(Netpkt.Mac_addr.make_local 1)
            ~ip_src:(Netpkt.Ipv4_addr.of_string "10.0.0.1")
            ~ip_dst:(Netpkt.Ipv4_addr.of_string "10.0.0.2")
            ~src_port:1 ~dst_port:2 "x"
        in
        (* vlan 102 arriving on the trunk goes to patch port 2, untagged *)
        let r =
          Softswitch.Soft_switch.process_direct ss1 ~now_ns:0 ~in_port:0
            (pkt (Some 102))
        in
        (match r.Pipeline.outputs with
        | [ Pipeline.Port (2, p) ] ->
            check Alcotest.(option int) "popped" None (Netpkt.Packet.outer_vid p)
        | _ -> Alcotest.fail "wrong trunk->patch behaviour");
        (* untagged from patch port 1 hairpins to the trunk with vlan 101 *)
        let r =
          Softswitch.Soft_switch.process_direct ss1 ~now_ns:0 ~in_port:1 (pkt None)
        in
        match r.Pipeline.outputs with
        | [ Pipeline.Port (0, p) ] ->
            check Alcotest.(option int) "pushed" (Some 101) (Netpkt.Packet.outer_vid p)
        | _ -> Alcotest.fail "wrong patch->trunk behaviour");
    tc "unknown vlan on trunk misses (drop)" (fun () ->
        let engine = Engine.create () in
        let m = H.Port_map.make ~access_ports:[ 0 ] () in
        let ss1 =
          Softswitch.Soft_switch.create engine ~name:"ss1" ~ports:2
            ~miss:Softswitch.Soft_switch.Drop_on_miss ()
        in
        H.Translator.install ss1 m;
        let pkt =
          Netpkt.Packet.udp ~vlans:[ Netpkt.Vlan.make 999 ]
            ~dst:(Netpkt.Mac_addr.make_local 2)
            ~src:(Netpkt.Mac_addr.make_local 1)
            ~ip_src:(Netpkt.Ipv4_addr.of_string "10.0.0.1")
            ~ip_dst:(Netpkt.Ipv4_addr.of_string "10.0.0.2")
            ~src_port:1 ~dst_port:2 "x"
        in
        let r = Softswitch.Soft_switch.process_direct ss1 ~now_ns:0 ~in_port:0 pkt in
        check Alcotest.bool "miss" true r.Pipeline.table_miss;
        check Alcotest.int "no outputs" 0 (List.length r.Pipeline.outputs));
  ]

(* ---- Manager ---- *)

let manager_rig ?(ports = 5) vendor =
  let engine = Engine.create () in
  let sw = Legacy_switch.create engine ~name:"legacy" ~ports () in
  let device = Mgmt.Device.create ~switch:sw ~vendor () in
  (engine, sw, device)

let manager_tests =
  [
    tc "provision configures, verifies and builds the sandwich" (fun () ->
        let engine, sw, device = manager_rig Mgmt.Device.Cisco_like in
        match
          H.Manager.provision engine ~device ~trunk_port:4
            ~access_ports:[ 0; 1; 2; 3 ] ()
        with
        | Error msg -> Alcotest.fail msg
        | Ok prov ->
            check Alcotest.bool "port 0 access 101" true
              (Legacy_switch.port_mode sw ~port:0 = Port_config.Access 101);
            (match Legacy_switch.port_mode sw ~port:4 with
            | Port_config.Trunk { native = None; allowed = Port_config.Only vids } ->
                check Alcotest.(list int) "trunk vlans" [ 101; 102; 103; 104 ]
                  (List.sort Int.compare vids)
            | _ -> Alcotest.fail "trunk not configured");
            check Alcotest.int "ss2 ports" 4
              (Node.port_count (Softswitch.Soft_switch.node prov.H.Manager.ss2));
            check Alcotest.int "ss1 rules" 8
              (Flow_table.size
                 (Pipeline.table (Softswitch.Soft_switch.pipeline prov.H.Manager.ss1) 0));
            check Alcotest.bool "steps logged" true
              (List.length prov.H.Manager.report.H.Manager.steps >= 5));
    tc "eos devices provision identically" (fun () ->
        let engine, sw, device = manager_rig Mgmt.Device.Arista_like in
        match
          H.Manager.provision engine ~device ~trunk_port:4 ~access_ports:[ 0; 1 ] ()
        with
        | Error msg -> Alcotest.fail msg
        | Ok _ ->
            check Alcotest.bool "configured" true
              (Legacy_switch.port_mode sw ~port:0 = Port_config.Access 101));
    tc "unmanaged ports keep their configuration" (fun () ->
        let engine, sw, device = manager_rig ~ports:6 Mgmt.Device.Cisco_like in
        Legacy_switch.set_port_mode sw ~port:3 (Port_config.Access 50);
        (match
           H.Manager.provision engine ~device ~trunk_port:5 ~access_ports:[ 0; 1 ] ()
         with
        | Error msg -> Alcotest.fail msg
        | Ok _ -> ());
        check Alcotest.bool "port 3 untouched" true
          (Legacy_switch.port_mode sw ~port:3 = Port_config.Access 50));
    tc "trunk overlapping access ports rejected" (fun () ->
        let engine, _, device = manager_rig Mgmt.Device.Cisco_like in
        match H.Manager.provision engine ~device ~trunk_port:0 ~access_ports:[ 0; 1 ] () with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "should fail");
    tc "nonexistent ports rejected" (fun () ->
        let engine, _, device = manager_rig Mgmt.Device.Cisco_like in
        match H.Manager.provision engine ~device ~trunk_port:4 ~access_ports:[ 0; 17 ] () with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "should fail");
    tc "vid overflow rejected" (fun () ->
        let engine, _, device = manager_rig Mgmt.Device.Cisco_like in
        match
          H.Manager.provision engine ~device ~trunk_port:4 ~access_ports:[ 0; 1 ]
            ~base_vid:4094 ()
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "should fail");
    tc "deprovision restores the previous configuration" (fun () ->
        let engine, sw, device = manager_rig Mgmt.Device.Cisco_like in
        let before = Mgmt.Device.running_config_text device in
        (match
           H.Manager.provision engine ~device ~trunk_port:4 ~access_ports:[ 0; 1; 2; 3 ] ()
         with
        | Error msg -> Alcotest.fail msg
        | Ok _ -> ());
        check Alcotest.bool "changed" false
          (String.equal before (Mgmt.Device.running_config_text device));
        (match H.Manager.deprovision device with
        | Ok () -> ()
        | Error msg -> Alcotest.fail msg);
        check Alcotest.string "restored" before (Mgmt.Device.running_config_text device);
        check Alcotest.bool "port 0 default" true
          (Legacy_switch.port_mode sw ~port:0 = Port_config.default));
  ]

(* ---- Deployment conventions ---- *)

let deployment_tests =
  [
    tc "host addressing conventions" (fun () ->
        check Alcotest.string "ip" "10.0.0.3"
          (Netpkt.Ipv4_addr.to_string (H.Deployment.host_ip 2));
        check Alcotest.bool "mac" true
          (Netpkt.Mac_addr.equal (H.Deployment.host_mac 2) (Netpkt.Mac_addr.make_local 3)));
    tc "harmless deployment exposes ss2 as controller switch" (fun () ->
        let engine = Engine.create () in
        match H.Deployment.build_harmless engine ~num_hosts:3 () with
        | Error msg -> Alcotest.fail msg
        | Ok d ->
            check Alcotest.int "hosts" 3 (H.Deployment.num_hosts d);
            let sw = H.Deployment.controller_switch d in
            check Alcotest.int "ss2 ports = hosts" 3
              (Node.port_count (Softswitch.Soft_switch.node sw)));
    tc "legacy-only deployment rejects controller_switch" (fun () ->
        let engine = Engine.create () in
        let d = H.Deployment.build_legacy_only engine ~num_hosts:2 () in
        check Alcotest.bool "raises" true
          (try ignore (H.Deployment.controller_switch d); false
           with Invalid_argument _ -> true));
  ]

(* ---- transparency as a property over random workloads ---- *)

let traffic_gen =
  (* a list of (src, dst, sport, dport, payload-length) sends *)
  QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 12)
    (QCheck2.Gen.map
       (fun (((src, dst), (sport, dport)), len) -> (src, dst, sport, dport, len))
       (QCheck2.Gen.pair
          (QCheck2.Gen.pair
             (QCheck2.Gen.pair (QCheck2.Gen.int_bound 3) (QCheck2.Gen.int_bound 3))
             (QCheck2.Gen.pair (QCheck2.Gen.int_range 1024 60000)
                (QCheck2.Gen.int_range 1 60000)))
          (QCheck2.Gen.int_bound 100)))

let transparency_property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"random workloads are transparency-preserving"
         ~count:6
         ~print:(fun sends ->
           String.concat ";"
             (List.map
                (fun (s, d, sp, dp, len) -> Printf.sprintf "%d>%d:%d>%d(%d)" s d sp dp len)
                sends))
         traffic_gen
         (fun sends ->
           let scenario =
             {
               H.Transparency.num_hosts = 4;
               apps = (fun () -> [ Sdnctl.L2_learning.create () ]);
               traffic =
                 (fun deployment ->
                   let engine = deployment.H.Deployment.engine in
                   List.iteri
                     (fun i (src, dst, sport, dport, len) ->
                       if src <> dst then
                         (* space sends beyond the control-channel round
                            trip so reactive flow installs settle between
                            packets: transparency is a steady-state
                            property; transient flood duplication is
                            timing-dependent in both deployments *)
                         Engine.schedule_after engine (Sim_time.ms (2 * (i + 1)))
                           (fun () ->
                             Host.send
                               (H.Deployment.host deployment src)
                               (Netpkt.Packet.udp
                                  ~dst:(H.Deployment.host_mac dst)
                                  ~src:(H.Deployment.host_mac src)
                                  ~ip_src:(H.Deployment.host_ip src)
                                  ~ip_dst:(H.Deployment.host_ip dst)
                                  ~src_port:sport ~dst_port:dport
                                  (String.make len 'q'))))
                     sends);
               warmup = Sim_time.ms 5;
               duration = Sim_time.ms 60;
             }
           in
           match H.Transparency.run scenario with
           | Ok verdict -> verdict.H.Transparency.equivalent
           | Error _ -> false));
  ]

let suite =
  [
    ("harmless.port_map", port_map_tests);
    ("harmless.translator", translator_tests);
    ("harmless.manager", manager_tests);
    ("harmless.deployment", deployment_tests);
    ("harmless.transparency_property", transparency_property_tests);
  ]
