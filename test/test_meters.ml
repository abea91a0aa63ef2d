open Openflow
open Netpkt

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let band rate_kbps burst_kb = { Meter_table.rate_kbps; burst_kb }

let meter_table_tests =
  [
    tc "passes within burst, drops beyond, refills over time" (fun () ->
        let t = Meter_table.create () in
        (* 8 Mbps, 1 KB burst: the bucket holds 8000 bits = 1000 bytes *)
        Meter_table.add t ~id:1 (band 8_000 1);
        check Alcotest.bool "first 500B" true
          (Meter_table.apply t ~id:1 ~now_ns:0 ~bytes:500 = `Pass);
        check Alcotest.bool "second 500B" true
          (Meter_table.apply t ~id:1 ~now_ns:0 ~bytes:500 = `Pass);
        check Alcotest.bool "bucket empty" true
          (Meter_table.apply t ~id:1 ~now_ns:0 ~bytes:100 = `Drop);
        (* 8 Mbps = 1 byte/us: after 100 us there is room for 100 bytes *)
        check Alcotest.bool "refilled" true
          (Meter_table.apply t ~id:1 ~now_ns:100_000 ~bytes:100 = `Pass);
        check Alcotest.bool "but only just" true
          (Meter_table.apply t ~id:1 ~now_ns:100_000 ~bytes:100 = `Drop));
    tc "long-run throughput equals the configured rate" (fun () ->
        let t = Meter_table.create () in
        Meter_table.add t ~id:1 (band 80_000 10) (* 80 Mbps = 10 bytes/us *);
        let passed_bytes = ref 0 in
        (* offer 1000B every 50us = 160 Mbps, for 100ms *)
        for i = 0 to 1999 do
          if Meter_table.apply t ~id:1 ~now_ns:(i * 50_000) ~bytes:1000 = `Pass then
            passed_bytes := !passed_bytes + 1000
        done;
        let mbps = float_of_int (!passed_bytes * 8) /. 0.1 /. 1e6 in
        check Alcotest.bool "within 5% of 80" true (mbps > 76.0 && mbps < 84.0));
    tc "unknown meter passes" (fun () ->
        let t = Meter_table.create () in
        check Alcotest.bool "pass" true
          (Meter_table.apply t ~id:9 ~now_ns:0 ~bytes:1500 = `Pass));
    tc "add/modify/remove lifecycle" (fun () ->
        let t = Meter_table.create () in
        Meter_table.add t ~id:1 (band 1000 1);
        check Alcotest.bool "dup" true
          (try Meter_table.add t ~id:1 (band 1 1); false
           with Invalid_argument _ -> true);
        Meter_table.modify t ~id:1 (band 2000 2);
        check Alcotest.bool "modify absent" true
          (try Meter_table.modify t ~id:2 (band 1 1); false with Not_found -> true);
        Meter_table.remove t ~id:1;
        check Alcotest.bool "gone" false (Meter_table.mem t ~id:1);
        check Alcotest.bool "bad band" true
          (try Meter_table.add t ~id:3 (band 0 1); false
           with Invalid_argument _ -> true));
    tc "stats count passes and drops" (fun () ->
        let t = Meter_table.create () in
        Meter_table.add t ~id:1 (band 8_000 1);
        ignore (Meter_table.apply t ~id:1 ~now_ns:0 ~bytes:1000);
        ignore (Meter_table.apply t ~id:1 ~now_ns:0 ~bytes:1000);
        check Alcotest.(option (pair int int)) "1/1" (Some (1, 1))
          (Meter_table.stats t ~id:1));
  ]

let udp_pkt () =
  Packet.udp
    ~dst:(Mac_addr.make_local 2)
    ~src:(Mac_addr.make_local 1)
    ~ip_src:(Ipv4_addr.of_string "10.0.0.1")
    ~ip_dst:(Ipv4_addr.of_string "10.0.0.2") ~src_port:1 ~dst_port:2
    (String.make 958 'x')
(* 958B payload -> 1000B frame *)

let pipeline_tests =
  [
    tc "metered-out packets produce no outputs" (fun () ->
        let p = Pipeline.create ~num_tables:2 () in
        Meter_table.add (Pipeline.meters p) ~id:1 (band 8_000 1);
        Flow_table.add (Pipeline.table p 0) ~now_ns:0
          (Flow_entry.make ~match_:Of_match.any
             [ Flow_entry.Meter 1; Flow_entry.Goto_table 1 ]);
        Flow_table.add (Pipeline.table p 1) ~now_ns:0
          (Flow_entry.make ~match_:Of_match.any
             [ Flow_entry.Apply_actions [ Of_action.output 1 ] ]);
        (* bucket = 1000B: first passes, second drops *)
        let r1 = Pipeline.execute p ~now_ns:0 ~in_port:0 (udp_pkt ()) in
        check Alcotest.int "first forwarded" 1 (List.length r1.Pipeline.outputs);
        let r2 = Pipeline.execute p ~now_ns:0 ~in_port:0 (udp_pkt ()) in
        check Alcotest.int "second dropped" 0 (List.length r2.Pipeline.outputs);
        check Alcotest.bool "not a miss" false r2.Pipeline.table_miss);
    tc "meter drop also cancels the pending action set" (fun () ->
        let p = Pipeline.create ~num_tables:1 () in
        Meter_table.add (Pipeline.meters p) ~id:1 (band 8_000 1);
        Flow_table.add (Pipeline.table p 0) ~now_ns:0
          (Flow_entry.make ~match_:Of_match.any
             [
               Flow_entry.Write_actions [ Of_action.output 3 ];
               Flow_entry.Meter 1;
             ]);
        ignore (Pipeline.execute p ~now_ns:0 ~in_port:0 (udp_pkt ()));
        let r = Pipeline.execute p ~now_ns:0 ~in_port:0 (udp_pkt ()) in
        check Alcotest.int "no deferred output" 0 (List.length r.Pipeline.outputs));
    tc "meter-mod through the switch agent" (fun () ->
        let engine = Simnet.Engine.create () in
        let sw = Softswitch.Soft_switch.create engine ~name:"s" ~ports:2 () in
        let errors = ref 0 in
        Softswitch.Soft_switch.set_controller sw (function
          | Of_message.Error _ -> incr errors
          | _ -> ());
        Softswitch.Soft_switch.handle_message sw
          (Of_message.Meter_mod (Of_message.Add_meter { id = 1; band = band 1000 1 }));
        check Alcotest.bool "installed" true
          (Meter_table.mem (Pipeline.meters (Softswitch.Soft_switch.pipeline sw)) ~id:1);
        Softswitch.Soft_switch.handle_message sw
          (Of_message.Meter_mod (Of_message.Add_meter { id = 1; band = band 1000 1 }));
        check Alcotest.int "duplicate is an error" 1 !errors;
        Softswitch.Soft_switch.handle_message sw
          (Of_message.Meter_mod (Of_message.Delete_meter { id = 1 }));
        check Alcotest.bool "deleted" false
          (Meter_table.mem (Pipeline.meters (Softswitch.Soft_switch.pipeline sw)) ~id:1));
    tc "policing survives the caching dataplane" (fun () ->
        (* The OVS-like cache replays instructions, so meters must still
           fire per packet on cache hits. *)
        let p = Pipeline.create ~num_tables:1 () in
        Meter_table.add (Pipeline.meters p) ~id:1 (band 8_000 1);
        Flow_table.add (Pipeline.table p 0) ~now_ns:0
          (Flow_entry.make ~match_:Of_match.any
             [
               Flow_entry.Meter 1;
               Flow_entry.Apply_actions [ Of_action.output 1 ];
             ]);
        let dp = Softswitch.Ovs_like.create p in
        let forwarded = ref 0 in
        for _ = 1 to 10 do
          let r = dp.Softswitch.Dataplane.process ~now_ns:0 ~in_port:0 (udp_pkt ()) in
          if r.Pipeline.outputs <> [] then incr forwarded
        done;
        (* bucket of 1000B admits exactly one 1000B frame at t=0 *)
        check Alcotest.int "exactly one passed" 1 !forwarded);
  ]

let e12_tests =
  [
    Alcotest.test_case "E12 policing holds the cap end-to-end" `Slow (fun () ->
        let r = Experiments_lib.E12_rate_limit.measure_run () in
        check Alcotest.bool "limited near cap" true
          (r.Experiments_lib.E12_rate_limit.limited_mbps
           < 1.1 *. r.Experiments_lib.E12_rate_limit.cap_mbps);
        check Alcotest.bool "limited at least 80% of cap" true
          (r.Experiments_lib.E12_rate_limit.limited_mbps
           > 0.8 *. r.Experiments_lib.E12_rate_limit.cap_mbps);
        check Alcotest.bool "unlimited unaffected" true
          (r.Experiments_lib.E12_rate_limit.unlimited_mbps > 390.0));
  ]

let suite =
  [
    ("meters.table", meter_table_tests);
    ("meters.pipeline", pipeline_tests);
    ("meters.e2e", e12_tests);
  ]
