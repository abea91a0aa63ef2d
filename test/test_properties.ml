(* Cross-cutting system properties: determinism, fail-standalone
   forwarding, mixed-vendor scale-out, and the documented customer-VLAN
   boundary of the tagging scheme. *)

open Simnet
open Netpkt

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let run_scenario () =
  let engine = Engine.create () in
  let d =
    match Harmless.Deployment.build_harmless engine ~num_hosts:4 () with
    | Ok d -> d
    | Error m -> failwith m
  in
  ignore
    (Experiments_lib.Common.attach_with_apps d [ Sdnctl.L2_learning.create () ]);
  let cap = Capture.create () in
  Array.iter (fun h -> Capture.attach cap (Host.node h)) d.Harmless.Deployment.hosts;
  let rng = Rng.create 1234 in
  for i = 0 to 19 do
    let src = Rng.int rng 4 in
    let dst = (src + 1 + Rng.int rng 3) mod 4 in
    Engine.schedule_after engine (Sim_time.us (137 * (i + 1))) (fun () ->
        Host.send
          (Harmless.Deployment.host d src)
          (Packet.udp
             ~dst:(Harmless.Deployment.host_mac dst)
             ~src:(Harmless.Deployment.host_mac src)
             ~ip_src:(Harmless.Deployment.host_ip src)
             ~ip_dst:(Harmless.Deployment.host_ip dst)
             ~src_port:(1024 + i) ~dst_port:9 "determinism"))
  done;
  Experiments_lib.Common.run_for engine (Sim_time.ms 80);
  List.map
    (fun e ->
      Printf.sprintf "%d %s %d %s"
        (Sim_time.to_ns e.Capture.time)
        e.Capture.node e.Capture.port
        (Packet.encode e.Capture.packet))
    (Capture.entries cap)

let determinism_tests =
  [
    tc "identical runs produce byte- and time-identical event traces" (fun () ->
        let a = run_scenario () and b = run_scenario () in
        check Alcotest.int "same length" (List.length a) (List.length b);
        List.iter2 (fun x y -> check Alcotest.string "same entry" x y) a b);
  ]

let fail_standalone_tests =
  [
    tc "installed flows keep forwarding after the controller dies" (fun () ->
        let engine = Engine.create () in
        let d =
          match Harmless.Deployment.build_harmless engine ~num_hosts:2 () with
          | Ok d -> d
          | Error m -> failwith m
        in
        ignore
          (Experiments_lib.Common.attach_with_apps d
             [ Experiments_lib.Common.proactive_l2 ~num_hosts:2 ]);
        let h0 = Harmless.Deployment.host d 0 in
        Host.ping h0 ~dst_mac:(Harmless.Deployment.host_mac 1)
          ~dst_ip:(Harmless.Deployment.host_ip 1) ~seq:1;
        Experiments_lib.Common.run_for engine (Sim_time.ms 50);
        check Alcotest.int "before" 1 (Host.echo_replies h0);
        (* the controller vanishes: messages to it go nowhere *)
        Softswitch.Soft_switch.set_controller
          (Harmless.Deployment.controller_switch d)
          (fun _ -> ());
        Host.ping h0 ~dst_mac:(Harmless.Deployment.host_mac 1)
          ~dst_ip:(Harmless.Deployment.host_ip 1) ~seq:2;
        Experiments_lib.Common.run_for engine (Sim_time.ms 50);
        check Alcotest.int "fail-standalone" 2 (Host.echo_replies h0));
  ]

let mixed_vendor_tests =
  [
    tc "a scale-out can mix all three NOS dialects" (fun () ->
        let engine = Engine.create () in
        let member vendor name =
          let sw = Ethswitch.Legacy_switch.create engine ~name ~ports:3 () in
          let device = Mgmt.Device.create ~switch:sw ~vendor () in
          {
            Harmless.Scaleout.device;
            trunk_port = 2;
            access_ports = [ 0; 1 ];
          }
        in
        match
          Harmless.Scaleout.provision engine
            ~members:
              [
                member Mgmt.Device.Cisco_like "m-ios";
                member Mgmt.Device.Arista_like "m-eos";
                member Mgmt.Device.Juniper_like "m-junos";
              ]
            ()
        with
        | Error m -> Alcotest.fail m
        | Ok scale ->
            check Alcotest.int "6 logical ports" 6
              (Harmless.Scaleout.total_ports scale);
            check Alcotest.(list string) "one driver per dialect"
              [ "ios"; "eos"; "junos" ]
              (Array.to_list
                 (Array.map
                    (fun (r : Harmless.Manager.report) ->
                      match String.split_on_char ' ' (List.hd r.Harmless.Manager.steps) with
                      | "connected" :: "via" :: driver :: _ -> driver
                      | _ -> "?")
                    scale.Harmless.Scaleout.reports)));
  ]

(* The tagging scheme owns the 802.1Q tag space on managed ports: a host
   that sends its own tagged frames loses them at the legacy ingress
   (tag <> PVID), where a plain OpenFlow switch would forward them.
   This is a real limitation of the design; the test pins it down and
   DESIGN.md documents it. *)
let boundary_tests =
  [
    tc "customer-tagged frames are dropped at managed access ports" (fun () ->
        let engine = Engine.create () in
        let d =
          match Harmless.Deployment.build_harmless engine ~num_hosts:2 () with
          | Ok d -> d
          | Error m -> failwith m
        in
        ignore
          (Experiments_lib.Common.attach_with_apps d
             [ Experiments_lib.Common.proactive_l2 ~num_hosts:2 ]);
        let h0 = Harmless.Deployment.host d 0 in
        let tagged =
          Packet.udp
            ~vlans:[ Vlan.make 777 ]
            ~dst:(Harmless.Deployment.host_mac 1)
            ~src:(Host.mac h0) ~ip_src:(Host.ip h0)
            ~ip_dst:(Harmless.Deployment.host_ip 1)
            ~src_port:1 ~dst_port:2 "customer tag"
        in
        Host.send h0 tagged;
        Experiments_lib.Common.run_for engine (Sim_time.ms 50);
        check Alcotest.int "not delivered" 0
          (Host.udp_received (Harmless.Deployment.host d 1));
        (match d.Harmless.Deployment.kind with
        | Harmless.Deployment.Harmless { legacy; _ } ->
            check Alcotest.int "dropped at legacy ingress" 1
              (Node.drops
                 (Ethswitch.Legacy_switch.node legacy)
                 Node.Drop_ingress_vlan)
        | _ -> assert false));
  ]

let suite =
  [
    ("properties.determinism", determinism_tests);
    ("properties.fail_standalone", fail_standalone_tests);
    ("properties.mixed_vendor", mixed_vendor_tests);
    ("properties.boundaries", boundary_tests);
  ]
