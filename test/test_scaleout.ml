open Simnet
open Ethswitch

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let member engine ~name ~ports =
  let sw = Legacy_switch.create engine ~name ~ports () in
  let device = Mgmt.Device.create ~switch:sw ~vendor:Mgmt.Device.Cisco_like () in
  (sw, device)

let unit_tests =
  [
    tc "port space is concatenated across members" (fun () ->
        let engine = Engine.create () in
        let _, d0 = member engine ~name:"m0" ~ports:4 in
        let _, d1 = member engine ~name:"m1" ~ports:6 in
        match
          Harmless.Scaleout.provision engine
            ~members:
              [
                { Harmless.Scaleout.device = d0; trunk_port = 3; access_ports = [ 0; 1; 2 ] };
                { Harmless.Scaleout.device = d1; trunk_port = 5; access_ports = [ 0; 1; 2; 3; 4 ] };
              ]
            ()
        with
        | Error msg -> Alcotest.fail msg
        | Ok scale ->
            check Alcotest.int "total" 8 (Harmless.Scaleout.total_ports scale);
            check Alcotest.(option int) "m0 p2 -> 2" (Some 2)
              (Harmless.Scaleout.ss2_port scale ~member:0 ~access_port:2);
            check Alcotest.(option int) "m1 p0 -> 3" (Some 3)
              (Harmless.Scaleout.ss2_port scale ~member:1 ~access_port:0);
            check Alcotest.(option int) "m1 p4 -> 7" (Some 7)
              (Harmless.Scaleout.ss2_port scale ~member:1 ~access_port:4);
            check Alcotest.(option (pair int int)) "inverse 5" (Some (1, 2))
              (Harmless.Scaleout.member_of_ss2_port scale 5);
            check Alcotest.(option (pair int int)) "inverse 0" (Some (0, 0))
              (Harmless.Scaleout.member_of_ss2_port scale 0);
            check Alcotest.(option (pair int int)) "out of range" None
              (Harmless.Scaleout.member_of_ss2_port scale 8);
            let server = scale.Harmless.Scaleout.server in
            check Alcotest.int "one ss1 per member" 2
              (Array.length server.Harmless.Server.ss1s);
            check Alcotest.(array int) "offsets are prefix sums" [| 0; 3 |]
              server.Harmless.Server.offsets;
            (* Frame by frame: cable a stand-in for each trunk, then walk
               every VLAN of both members through SS_1 and SS_2. *)
            Array.iteri
              (fun m ss1 ->
                let wire =
                  Node.create engine ~name:(Printf.sprintf "wire%d" m) ~ports:1
                in
                ignore
                  (Link.connect (wire, 0) (Softswitch.Soft_switch.node ss1, 0));
                Hairpin.check engine ~ss1 ~nic:0 ~ss2:server.Harmless.Server.ss2
                  ~offset:[| 0; 3 |].(m)
                  scale.Harmless.Scaleout.port_maps.(m))
              server.Harmless.Server.ss1s);
    tc "vlan ranges are reused per member" (fun () ->
        let engine = Engine.create () in
        let _, d0 = member engine ~name:"m0" ~ports:3 in
        let _, d1 = member engine ~name:"m1" ~ports:3 in
        match
          Harmless.Scaleout.provision engine
            ~members:
              [
                { Harmless.Scaleout.device = d0; trunk_port = 2; access_ports = [ 0; 1 ] };
                { Harmless.Scaleout.device = d1; trunk_port = 2; access_ports = [ 0; 1 ] };
              ]
            ()
        with
        | Error msg -> Alcotest.fail msg
        | Ok scale ->
            check Alcotest.(list int) "same vids" [ 101; 102 ]
              (Harmless.Port_map.vids scale.Harmless.Scaleout.port_maps.(0));
            check Alcotest.(list int) "same vids'" [ 101; 102 ]
              (Harmless.Port_map.vids scale.Harmless.Scaleout.port_maps.(1)));
    tc "failure on a later member rolls back earlier ones" (fun () ->
        let engine = Engine.create () in
        let sw0, d0 = member engine ~name:"m0" ~ports:4 in
        let _, d1 = member engine ~name:"m1" ~ports:4 in
        let before = Mgmt.Device.running_config_text d0 in
        (match
           Harmless.Scaleout.provision engine
             ~members:
               [
                 { Harmless.Scaleout.device = d0; trunk_port = 3; access_ports = [ 0; 1; 2 ] };
                 (* invalid: trunk inside access ports *)
                 { Harmless.Scaleout.device = d1; trunk_port = 0; access_ports = [ 0; 1 ] };
               ]
             ()
         with
        | Ok _ -> Alcotest.fail "should have failed"
        | Error _ -> ());
        check Alcotest.string "m0 restored" before (Mgmt.Device.running_config_text d0);
        check Alcotest.bool "m0 port default" true
          (Legacy_switch.port_mode sw0 ~port:0 = Port_config.default));
    tc "empty member list rejected" (fun () ->
        let engine = Engine.create () in
        match Harmless.Scaleout.provision engine ~members:[] () with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "should fail");
  ]

let integration_tests =
  [
    Alcotest.test_case "cross-switch traffic flows through the shared SS_2" `Slow
      (fun () ->
        let r = Experiments_lib.E11_scaleout.measure () in
        check Alcotest.int "ports" 12 r.Experiments_lib.E11_scaleout.total_ports;
        check Alcotest.int "intra all ok" r.Experiments_lib.E11_scaleout.intra_pairs
          r.Experiments_lib.E11_scaleout.intra_ok;
        check Alcotest.int "inter all ok" r.Experiments_lib.E11_scaleout.inter_pairs
          r.Experiments_lib.E11_scaleout.inter_ok);
    tc "controller apps work unchanged on a scale-out deployment" (fun () ->
        let engine = Engine.create () in
        let d =
          match
            Harmless.Deployment.build_scaleout engine ~num_switches:2
              ~hosts_per_switch:2 ()
          with
          | Ok d -> d
          | Error m -> failwith m
        in
        ignore
          (Experiments_lib.Common.attach_with_apps d [ Sdnctl.L2_learning.create () ]);
        (* host 0 (switch 0) pings host 3 (switch 1) *)
        let h0 = Harmless.Deployment.host d 0 in
        Host.ping h0
          ~dst_mac:(Harmless.Deployment.host_mac 3)
          ~dst_ip:(Harmless.Deployment.host_ip 3)
          ~seq:1;
        Experiments_lib.Common.run_for engine (Sim_time.ms 100);
        check Alcotest.int "cross-switch ping" 1 (Host.echo_replies h0));
  ]

let suite =
  [ ("scaleout.unit", unit_tests); ("scaleout.integration", integration_tests) ]
