open Simnet
open Ethswitch

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* A redundant-trunk rig: 2 hosts, legacy switch with ports
   0-1 = hosts, 2 = primary trunk, 3 = backup trunk. *)
let rig () =
  let engine = Engine.create () in
  let legacy = Legacy_switch.create engine ~name:"resilient" ~ports:4 () in
  let device = Mgmt.Device.create ~switch:legacy ~vendor:Mgmt.Device.Cisco_like () in
  let fo =
    match
      Harmless.Failover.provision engine ~device ~primary_trunk:2 ~backup_trunk:3
        ~access_ports:[ 0; 1 ] ()
    with
    | Ok f -> f
    | Error m -> failwith m
  in
  let hosts, _ =
    Harmless.Deployment.attach_hosts engine ~host_link:Link.gige
      [| Legacy_switch.node legacy |] ~per_node:2
  in
  let primary, _ = Harmless.Failover.connect_trunks fo in
  let ctrl = Sdnctl.Controller.create engine () in
  Sdnctl.Controller.add_app ctrl (Sdnctl.L2_learning.create ());
  ignore (Sdnctl.Controller.attach_switch ctrl (Harmless.Failover.ss2 fo));
  Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 5));
  (engine, legacy, fo, hosts, primary)

let ping_works engine hosts =
  let before = Host.echo_replies hosts.(0) in
  Host.ping hosts.(0) ~dst_mac:(Host.mac hosts.(1)) ~dst_ip:(Host.ip hosts.(1))
    ~seq:(before + 1);
  Engine.run engine ~until:(Sim_time.add (Engine.now engine) (Sim_time.ms 80));
  Host.echo_replies hosts.(0) > before

let failover_tests =
  [
    tc "provision keeps the backup trunk shut" (fun () ->
        let _, legacy, fo, _, _ = rig () in
        check Alcotest.bool "primary active" true
          (Harmless.Failover.active fo = `Primary);
        (match Legacy_switch.port_mode legacy ~port:2 with
        | Port_config.Trunk _ -> ()
        | _ -> Alcotest.fail "primary not a trunk");
        check Alcotest.bool "backup disabled" true
          (Legacy_switch.port_mode legacy ~port:3 = Port_config.Disabled));
    tc "traffic flows over the primary" (fun () ->
        let engine, _, _, hosts, _ = rig () in
        check Alcotest.bool "ping" true (ping_works engine hosts));
    tc "manual failover restores connectivity after trunk loss" (fun () ->
        let engine, legacy, fo, hosts, primary = rig () in
        check Alcotest.bool "before" true (ping_works engine hosts);
        Link.disconnect primary;
        check Alcotest.bool "broken" false (ping_works engine hosts);
        (match Harmless.Failover.activate_backup fo with
        | Ok () -> ()
        | Error m -> Alcotest.fail m);
        check Alcotest.bool "backup active" true
          (Harmless.Failover.active fo = `Backup);
        check Alcotest.bool "backup is now the trunk" true
          (match Legacy_switch.port_mode legacy ~port:3 with
          | Port_config.Trunk _ -> true
          | _ -> false);
        check Alcotest.bool "primary shut" true
          (Legacy_switch.port_mode legacy ~port:2 = Port_config.Disabled);
        check Alcotest.bool "after" true (ping_works engine hosts);
        check Alcotest.int "one failover" 1 (Harmless.Failover.failovers fo);
        (* SS_1's backup NIC is port 1: every VLAN now hairpins there. *)
        Hairpin.check engine ~ss1:(Harmless.Failover.ss1 fo) ~nic:1
          ~ss2:(Harmless.Failover.ss2 fo) ~offset:0
          (Harmless.Failover.port_map fo));
    tc "watchdog fails over automatically" (fun () ->
        let engine, _, fo, hosts, primary = rig () in
        Harmless.Failover.start_watchdog fo ~period:(Sim_time.ms 10);
        check Alcotest.bool "before" true (ping_works engine hosts);
        Link.disconnect primary;
        (* let the watchdog notice *)
        Engine.run engine ~until:(Sim_time.add (Engine.now engine) (Sim_time.ms 30));
        check Alcotest.bool "auto failover" true
          (Harmless.Failover.active fo = `Backup);
        check Alcotest.bool "healed" true (ping_works engine hosts));
    tc "activate_backup is idempotent" (fun () ->
        let _, _, fo, _, _ = rig () in
        (match Harmless.Failover.activate_backup fo with Ok () -> () | Error m -> Alcotest.fail m);
        (match Harmless.Failover.activate_backup fo with Ok () -> () | Error m -> Alcotest.fail m);
        check Alcotest.int "counted once" 1 (Harmless.Failover.failovers fo));
    tc "invalid trunk layouts rejected" (fun () ->
        let engine = Engine.create () in
        let legacy = Legacy_switch.create engine ~name:"bad" ~ports:4 () in
        let device =
          Mgmt.Device.create ~switch:legacy ~vendor:Mgmt.Device.Cisco_like ()
        in
        (match
           Harmless.Failover.provision engine ~device ~primary_trunk:2
             ~backup_trunk:2 ~access_ports:[ 0; 1 ] ()
         with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "same trunk accepted");
        match
          Harmless.Failover.provision engine ~device ~primary_trunk:2
            ~backup_trunk:0 ~access_ports:[ 0; 1 ] ()
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "backup inside access ports accepted");
  ]

let suite = [ ("failover", failover_tests) ]
