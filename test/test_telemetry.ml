(* The telemetry layer: registry semantics, trace assembly, exporter
   golden outputs, and the end-to-end hop sequence of a ping through a
   HARMLESS deployment. *)

open Telemetry
open Netpkt

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ---- registry: counters, gauges, histograms ---- *)

let registry_tests =
  [
    tc "counter increments" (fun () ->
        let r = Registry.create () in
        let c = Registry.Counter.v ~registry:r "requests_total" in
        Registry.Counter.inc c;
        Registry.Counter.inc ~by:4 c;
        check Alcotest.int "value" 5 (Registry.Counter.value c));
    tc "same name+labels is the same series" (fun () ->
        let r = Registry.create () in
        let a = Registry.Counter.v ~registry:r "hits_total" in
        let b = Registry.Counter.v ~registry:r "hits_total" in
        Registry.Counter.inc a;
        Registry.Counter.inc b;
        check Alcotest.int "shared" 2 (Registry.Counter.value a));
    tc "label order does not matter" (fun () ->
        let r = Registry.create () in
        let a =
          Registry.Counter.v ~registry:r
            ~labels:[ ("a", "1"); ("b", "2") ]
            "hits_total"
        in
        let b =
          Registry.Counter.v ~registry:r
            ~labels:[ ("b", "2"); ("a", "1") ]
            "hits_total"
        in
        Registry.Counter.inc a;
        Registry.Counter.inc b;
        check Alcotest.int "normalized" 2 (Registry.Counter.value a));
    tc "distinct labels are distinct series" (fun () ->
        let r = Registry.create () in
        let a = Registry.Counter.v ~registry:r ~labels:[ ("sw", "1") ] "x_total" in
        let b = Registry.Counter.v ~registry:r ~labels:[ ("sw", "2") ] "x_total" in
        Registry.Counter.inc a;
        check Alcotest.int "other untouched" 0 (Registry.Counter.value b));
    tc "kind mismatch raises" (fun () ->
        let r = Registry.create () in
        ignore (Registry.Counter.v ~registry:r "mixed");
        Alcotest.check_raises "gauge over counter"
          (Invalid_argument
             "Telemetry.Registry: metric \"mixed\" already registered as a counter")
          (fun () -> ignore (Registry.Gauge.v ~registry:r "mixed")));
    tc "invalid names and labels raise" (fun () ->
        let r = Registry.create () in
        let raises f =
          match f () with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "expected Invalid_argument"
        in
        raises (fun () -> Registry.Counter.v ~registry:r "1bad");
        raises (fun () -> Registry.Counter.v ~registry:r "has space");
        raises (fun () ->
            Registry.Counter.v ~registry:r ~labels:[ ("9x", "v") ] "ok");
        raises (fun () ->
            Registry.Counter.v ~registry:r ~labels:[ ("quantile", "v") ] "ok");
        raises (fun () ->
            Registry.Counter.v ~registry:r
              ~labels:[ ("a", "1"); ("a", "2") ]
              "ok");
        raises (fun () ->
            Registry.Counter.inc ~by:(-1) (Registry.Counter.v ~registry:r "ok")));
    tc "gauge set/add/set_int" (fun () ->
        let r = Registry.create () in
        let g = Registry.Gauge.v ~registry:r "depth" in
        Registry.Gauge.set g 2.5;
        Registry.Gauge.add g 1.0;
        check (Alcotest.float 1e-9) "float" 3.5 (Registry.Gauge.value g);
        Registry.Gauge.set_int g 7;
        check (Alcotest.float 1e-9) "int" 7.0 (Registry.Gauge.value g));
    tc "histogram exact below 64, ~6% above" (fun () ->
        let r = Registry.create () in
        let h = Registry.Histogram.v ~registry:r "lat" in
        List.iter (Registry.Histogram.observe h) [ 1; 2; 3 ];
        check Alcotest.int "count" 3 (Registry.Histogram.count h);
        check (Alcotest.float 1e-9) "sum" 6.0 (Registry.Histogram.sum h);
        check (Alcotest.float 1e-9) "mean" 2.0 (Registry.Histogram.mean h);
        check Alcotest.int "p50" 2 (Registry.Histogram.percentile h 50.0);
        check Alcotest.int "p99" 3 (Registry.Histogram.percentile h 99.0);
        let big = Registry.Histogram.v ~registry:r "lat_big" in
        for _ = 1 to 9 do Registry.Histogram.observe big 1000 done;
        Registry.Histogram.observe big 2000;
        let p50 = Registry.Histogram.percentile big 50.0 in
        if p50 < 1000 || p50 > 1060 then
          Alcotest.failf "p50 %d outside 6%% of 1000" p50);
    tc "histogram rejects negatives and empty percentile" (fun () ->
        let r = Registry.create () in
        let h = Registry.Histogram.v ~registry:r "lat" in
        (match Registry.Histogram.observe h (-1) with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "negative observe");
        match Registry.Histogram.percentile h 50.0 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "empty percentile");
    tc "reset zeroes, registrations survive" (fun () ->
        let r = Registry.create () in
        let c = Registry.Counter.v ~registry:r ~labels:[ ("k", "v") ] "c_total" in
        let g = Registry.Gauge.v ~registry:r "g" in
        let h = Registry.Histogram.v ~registry:r "h" in
        Registry.Counter.inc ~by:5 c;
        Registry.Gauge.set g 1.5;
        Registry.Histogram.observe h 10;
        Registry.reset r;
        check Alcotest.int "counter" 0 (Registry.Counter.value c);
        check (Alcotest.float 1e-9) "gauge" 0.0 (Registry.Gauge.value g);
        check Alcotest.int "histogram" 0 (Registry.Histogram.count h);
        let text = Registry.to_prometheus r in
        List.iter
          (fun needle ->
            if not (contains ~needle text) then
              Alcotest.failf "%S missing after reset" needle)
          [ "c_total"; "g 0"; "h_count 0" ]);
    tc "publish_ints snapshots a stats list into gauges" (fun () ->
        let r = Registry.create () in
        Registry.publish_ints ~registry:r ~prefix:"node"
          ~labels:[ ("dev", "sw0") ]
          [ ("rx", 3); ("tx[0]", 1) ];
        let text = Registry.to_prometheus r in
        List.iter
          (fun needle ->
            if not (contains ~needle text) then
              Alcotest.failf "%S missing from:\n%s" needle text)
          [ {|node_rx{dev="sw0"} 3|}; {|node_tx_0_{dev="sw0"} 1|} ]);
  ]

(* ---- golden exposition outputs ---- *)

let golden_registry () =
  let r = Registry.create () in
  let c = Registry.Counter.v ~registry:r ~help:"Total requests" "requests_total" in
  Registry.Counter.inc ~by:3 c;
  Registry.Counter.inc ~by:2
    (Registry.Counter.v ~registry:r ~help:"Total requests"
       ~labels:[ ("switch", "ss1") ]
       "requests_total");
  Registry.Gauge.set (Registry.Gauge.v ~registry:r "queue_depth") 2.5;
  let h = Registry.Histogram.v ~registry:r "latency_ns" in
  List.iter (Registry.Histogram.observe h) [ 1; 2; 3 ];
  r

let golden_tests =
  [
    tc "prometheus text" (fun () ->
        let expected =
          "# TYPE latency_ns summary\n\
           latency_ns{quantile=\"0.5\"} 2\n\
           latency_ns{quantile=\"0.9\"} 3\n\
           latency_ns{quantile=\"0.99\"} 3\n\
           latency_ns_sum 6\n\
           latency_ns_count 3\n\
           # TYPE queue_depth gauge\n\
           queue_depth 2.5\n\
           # HELP requests_total Total requests\n\
           # TYPE requests_total counter\n\
           requests_total 3\n\
           requests_total{switch=\"ss1\"} 2\n"
        in
        check Alcotest.string "exposition" expected
          (Registry.to_prometheus (golden_registry ())));
    tc "json exposition" (fun () ->
        let expected =
          {|{"metrics":[{"name":"latency_ns","type":"histogram","help":"","series":[{"labels":{},"value":{"count":3,"sum":6,"mean":2,"p50":2,"p90":3,"p99":3}}]},{"name":"queue_depth","type":"gauge","help":"","series":[{"labels":{},"value":2.5}]},{"name":"requests_total","type":"counter","help":"Total requests","series":[{"labels":{},"value":3},{"labels":{"switch":"ss1"},"value":2}]}]}|}
        in
        check Alcotest.string "json" expected
          (Registry.to_json (golden_registry ())));
    tc "chrome trace events" (fun () ->
        let hop ~seq ~ts_ns ~stage ~port ~cycles ~detail =
          {
            Trace.seq;
            ts_ns;
            component = "sw0";
            layer = Trace.Switch;
            stage;
            port;
            trace_key = lazy 0xabc;
            packet = lazy "pkt";
            bytes = 64;
            cycles;
            detail;
          }
        in
        let hops =
          [
            hop ~seq:1 ~ts_ns:1000 ~stage:"rx" ~port:(Some 2) ~cycles:0 ~detail:"";
            hop ~seq:2 ~ts_ns:1500 ~stage:"pipeline" ~port:None ~cycles:2400
              ~detail:"emc hit";
          ]
        in
        let expected =
          "[\n\
          \ {\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":1,\"args\":{\"name\":\"sw0\"}},\n\
          \ {\"name\":\"switch.rx\",\"cat\":\"switch\",\"ph\":\"X\",\"ts\":1,\"dur\":0.001,\"pid\":1,\"tid\":1,\"args\":{\"packet\":\"pkt\",\"trace_key\":\"00000abc\",\"bytes\":64,\"port\":2}},\n\
          \ {\"name\":\"switch.pipeline\",\"cat\":\"switch\",\"ph\":\"X\",\"ts\":1.5,\"dur\":1,\"pid\":1,\"tid\":1,\"args\":{\"packet\":\"pkt\",\"trace_key\":\"00000abc\",\"bytes\":64,\"cycles\":2400,\"detail\":\"emc hit\"}}\n\
           ]"
        in
        check Alcotest.string "chrome" expected
          (Chrome_trace.to_string (Trace.of_hops hops)));
  ]

(* ---- trace: keys, the recorder, per-packet assembly ---- *)

let pkt ~seq =
  Packet.icmp_echo
    ~dst:(Mac_addr.make_local 2)
    ~src:(Mac_addr.make_local 1)
    ~ip_src:(Ipv4_addr.of_string "10.0.0.1")
    ~ip_dst:(Ipv4_addr.of_string "10.0.0.2")
    ~id:1 ~seq

let trace_tests =
  [
    tc "key survives the tag path" (fun () ->
        let p = pkt ~seq:1 in
        let k = Trace.key_of_packet p in
        let tagged = Packet.push_vlan (Vlan.make 101) p in
        check Alcotest.int "push" k (Trace.key_of_packet tagged);
        let rewritten = Packet.set_outer_vid 202 tagged in
        check Alcotest.int "rewrite" k (Trace.key_of_packet rewritten);
        (match Packet.pop_vlan rewritten with
        | Some (_, popped) -> check Alcotest.int "pop" k (Trace.key_of_packet popped)
        | None -> Alcotest.fail "expected a tag");
        if Trace.key_of_packet (pkt ~seq:2) = k then
          Alcotest.fail "distinct packets should get distinct keys");
    tc "emit without a sink is a no-op" (fun () ->
        check Alcotest.bool "disabled" false (Trace.enabled ());
        Trace.emit ~ts_ns:0 ~component:"x" ~layer:Trace.Host ~stage:"tx"
          (pkt ~seq:1));
    tc "collector groups per packet, ordered by (ts, seq)" (fun () ->
        let p1 = pkt ~seq:1 and p2 = pkt ~seq:2 in
        let traces =
          Trace.with_recorder (fun r ->
              Trace.emit ~ts_ns:300 ~component:"c" ~layer:Trace.Host ~stage:"late" p1;
              Trace.emit ~ts_ns:100 ~component:"a" ~layer:Trace.Host ~stage:"first" p2;
              Trace.emit ~ts_ns:200 ~component:"b" ~layer:Trace.Host ~stage:"mid" p1;
              Trace.traces r)
        in
        check Alcotest.int "two traces" 2 (List.length traces);
        let t1 = List.nth traces 0 and t2 = List.nth traces 1 in
        (* p2's hop is earliest, so its trace comes first. *)
        check Alcotest.int "first trace key" (Trace.key_of_packet p2) t1.Trace.key;
        check
          Alcotest.(list string)
          "p1 hops sorted" [ "mid"; "late" ]
          (List.map (fun h -> h.Trace.stage) t2.Trace.hops));
    tc "with_recorder restores the previous recorder" (fun () ->
        let outer = Trace.create () in
        Trace.install outer;
        Fun.protect
          ~finally:(fun () -> Trace.uninstall outer)
          (fun () ->
            Trace.with_recorder (fun _ ->
                Trace.emit ~ts_ns:1 ~component:"x" ~layer:Trace.Host ~stage:"tx"
                  (pkt ~seq:1));
            check Alcotest.int "outer recorder not fed" 0
              (List.length (Trace.hops outer));
            Trace.emit ~ts_ns:2 ~component:"x" ~layer:Trace.Host ~stage:"tx"
              (pkt ~seq:1);
            check Alcotest.int "outer recorder restored" 1
              (List.length (Trace.hops outer))));
    tc "hops and events share one sequence; since reads from a mark"
      (fun () ->
        Trace.with_recorder (fun r ->
            Trace.emit ~ts_ns:1 ~component:"x" ~layer:Trace.Host ~stage:"tx"
              (pkt ~seq:1);
            Trace.event ~ts_ns:2 ~stream:"s" "between";
            let m = Trace.mark r in
            Trace.emit ~ts_ns:3 ~component:"x" ~layer:Trace.Host ~stage:"rx"
              (pkt ~seq:1);
            check Alcotest.(list int) "hop seqs" [ 1; 3 ]
              (List.map (fun (h : Trace.hop) -> h.Trace.seq) (Trace.hops r));
            check Alcotest.(list int) "event seq" [ 2 ]
              (List.map (fun (e : Trace.event) -> e.Trace.seq) (Trace.events r));
            check Alcotest.(list string) "since the mark" [ "rx" ]
              (List.map (fun (h : Trace.hop) -> h.Trace.stage)
                 (Trace.hops ~since:m r))));
  ]

(* ---- integration: the Fig. 1 walk, observed ---- *)

(* A fresh HARMLESS deployment, warmed up, then one ping h0 -> h1 run
   under a fresh recorder; returns the deployment and that recorder. *)
let traced_ping () =
  let engine = Simnet.Engine.create () in
  let deployment =
    match Harmless.Deployment.build_harmless engine ~num_hosts:4 () with
    | Ok d -> d
    | Error m -> failwith m
  in
  let ctrl = Sdnctl.Controller.create engine () in
  Sdnctl.Controller.add_app ctrl (Sdnctl.L2_learning.create ());
  ignore
    (Sdnctl.Controller.attach_switch ctrl
       (Harmless.Deployment.controller_switch deployment));
  let run_to ms =
    Simnet.Engine.run engine ~until:(Simnet.Sim_time.of_ns (Simnet.Sim_time.ms ms))
  in
  let ping seq =
    Simnet.Host.ping
      (Harmless.Deployment.host deployment 0)
      ~dst_mac:(Harmless.Deployment.host_mac 1)
      ~dst_ip:(Harmless.Deployment.host_ip 1)
      ~seq
  in
  run_to 5;
  (* Two warm-up pings: the first floods and teaches the controller h0,
     the second installs the h0 -> h1 flow. *)
  ping 1;
  run_to 50;
  ping 2;
  run_to 100;
  (deployment, Trace.with_recorder (fun r -> ping 3; run_to 150; r))

let integration_tests =
  [
    tc "ping hop sequence through HARMLESS" (fun () ->
        let deployment, recorder = traced_ping () in
        let traces = Trace.traces recorder in
        let view = Harmless.Trace_view.of_deployment deployment in
        check Alcotest.int "request and reply" 2 (List.length traces);
        let request = List.nth traces 0 and reply = List.nth traces 1 in
        let expected =
          [
            "host-tx"; "legacy-ingress"; "tag-push"; "trunk-rx"; "translate";
            "patch-tx"; "ss2-rx"; "of-pipeline"; "ss2-tx"; "patch-rx";
            "translate"; "hairpin"; "legacy-trunk-ingress"; "tag-pop"; "host-rx";
          ]
        in
        check
          Alcotest.(list string)
          "echo request path" expected
          (Harmless.Trace_view.semantic_path view request);
        check
          Alcotest.(list string)
          "echo reply path" expected
          (Harmless.Trace_view.semantic_path view reply));
    tc "sequences are per recorder: same ping, same hops, seq included"
      (fun () ->
        let record () =
          let recorder = snd (traced_ping ()) in
          let hops =
            List.map
              (fun (h : Trace.hop) ->
                ( (h.Trace.seq, h.Trace.ts_ns, h.Trace.component, h.Trace.stage),
                  (h.Trace.port, Lazy.force h.Trace.trace_key, Lazy.force h.Trace.packet),
                  (h.Trace.bytes, h.Trace.cycles, h.Trace.detail) ))
              (Trace.hops recorder)
          in
          (hops, Span.of_traces (Trace.traces recorder))
        in
        let first_hops, first_spans = record () in
        let second_hops, second_spans = record () in
        check Alcotest.bool "hops recorded" true (first_hops <> []);
        check Alcotest.bool "second recorder numbers from 1 again" true
          (first_hops = second_hops);
        check Alcotest.bool "span trees are equal" true
          (first_spans = second_spans));
    tc "publish_metrics surfaces component tallies" (fun () ->
        let engine = Simnet.Engine.create () in
        let deployment =
          match Harmless.Deployment.build_harmless engine ~num_hosts:3 () with
          | Ok d -> d
          | Error m -> failwith m
        in
        let legacy, device, ss1, ss2 =
          match deployment.Harmless.Deployment.kind with
          | Harmless.Deployment.Harmless { legacy; device; prov; _ } ->
              (legacy, device, prov.Harmless.Manager.ss1, prov.Harmless.Manager.ss2)
          | _ -> Alcotest.fail "expected a HARMLESS deployment"
        in
        let module SS = Softswitch.Soft_switch in
        let nodes = [ Ethswitch.Legacy_switch.node legacy; SS.node ss1; SS.node ss2 ] in
        let cap = Simnet.Capture.create () in
        List.iter (Simnet.Capture.attach cap) nodes;
        let ctrl = Sdnctl.Controller.create engine () in
        Sdnctl.Controller.add_app ctrl (Sdnctl.L2_learning.create ());
        ignore
          (Sdnctl.Controller.attach_switch ctrl
             (Harmless.Deployment.controller_switch deployment));
        Simnet.Engine.run engine
          ~until:(Simnet.Sim_time.of_ns (Simnet.Sim_time.ms 5));
        Simnet.Host.ping
          (Harmless.Deployment.host deployment 0)
          ~dst_mac:(Harmless.Deployment.host_mac 1)
          ~dst_ip:(Harmless.Deployment.host_ip 1)
          ~seq:1;
        let h1 = Harmless.Deployment.host deployment 1 in
        ignore
          (Simnet.Traffic.udp_stream ~rng:(Simnet.Rng.create 7)
             ~src:(Harmless.Deployment.host deployment 0)
             ~dst_mac:(Simnet.Host.mac h1) ~dst_ip:(Simnet.Host.ip h1)
             ~stop:(Simnet.Sim_time.of_ns (Simnet.Sim_time.ms 6))
             (Simnet.Traffic.Cbr 20_000.0) Simnet.Traffic.Imix ());
        Simnet.Engine.run engine
          ~until:(Simnet.Sim_time.of_ns (Simnet.Sim_time.ms 50));
        let r = Registry.create () in
        Simnet.Engine.publish_metrics ~registry:r engine;
        Sdnctl.Controller.publish_metrics ~registry:r ctrl;
        Ethswitch.Legacy_switch.publish_metrics ~registry:r legacy;
        SS.publish_metrics ~registry:r ss1;
        SS.publish_metrics ~registry:r ss2;
        let text = Registry.to_prometheus r in
        List.iter
          (fun needle ->
            if not (contains ~needle text) then
              Alcotest.failf "%S missing from metrics:\n%s" needle text)
          [
            "sim_events_executed"; "controller_packet_ins";
            "ethswitch_rx"; "softswitch_packets";
          ];
        (* Every port counter, wherever it is read, equals what a capture
           on that port saw. *)
        let seen node dir port =
          let frames =
            Simnet.Capture.filter cap (fun e ->
                e.Simnet.Capture.node = Simnet.Node.name node
                && e.Simnet.Capture.dir = dir && e.Simnet.Capture.port = port)
          in
          ( List.length frames,
            List.fold_left
              (fun acc e -> acc + Packet.wire_size e.Simnet.Capture.packet)
              0 frames )
        in
        let total node dir =
          List.length
            (Simnet.Capture.filter cap (fun e ->
                 e.Simnet.Capture.node = Simnet.Node.name node
                 && e.Simnet.Capture.dir = dir))
        in
        let gauge name labels v =
          Printf.sprintf "\n%s{%s} %d\n" name labels v
        in
        let expect_line line =
          if not (contains ~needle:line text) then
            Alcotest.failf "%S missing from metrics" line
        in
        List.iter
          (fun sw ->
            let node = SS.node sw in
            let replies = ref [] in
            SS.set_controller sw (fun m -> replies := m :: !replies);
            SS.handle_message sw Openflow.Of_message.Port_stats_request;
            (match !replies with
            | [ Openflow.Of_message.Port_stats_reply stats ] ->
                check Alcotest.int "one stat per port" (Simnet.Node.port_count node)
                  (List.length stats);
                List.iter
                  (fun (s : Openflow.Of_message.port_stat) ->
                    let p = s.Openflow.Of_message.port_no in
                    check Alcotest.(pair int int) "port_stats rx" (seen node Simnet.Node.Rx p)
                      (s.Openflow.Of_message.rx_packets, s.Openflow.Of_message.rx_bytes);
                    check Alcotest.(pair int int) "port_stats tx" (seen node Simnet.Node.Tx p)
                      (s.Openflow.Of_message.tx_packets, s.Openflow.Of_message.tx_bytes))
                  stats
            | _ -> Alcotest.fail "expected one port-stats reply");
            let labels =
              Printf.sprintf "dataplane=%S,switch=%S" (SS.dataplane_name sw) (SS.name sw)
            in
            expect_line
              (gauge "softswitch_rx_packets" labels (total node Simnet.Node.Rx));
            expect_line
              (gauge "softswitch_tx_packets" labels (total node Simnet.Node.Tx)))
          [ ss1; ss2 ];
        let node = Ethswitch.Legacy_switch.node legacy in
        let labels = Printf.sprintf "device=%S" (Ethswitch.Legacy_switch.name legacy) in
        let agent = Mgmt.Device.snmp device in
        let mib oid =
          match Mgmt.Snmp.get agent ~community:"public" oid with
          | Ok (Mgmt.Mib.Int n) -> n
          | _ -> Alcotest.fail "MIB counter read"
        in
        expect_line (gauge "ethswitch_rx" labels (total node Simnet.Node.Rx));
        expect_line (gauge "ethswitch_tx" labels (total node Simnet.Node.Tx));
        for p = 0 to Simnet.Node.port_count node - 1 do
          List.iter
            (fun (dir, key, oid) ->
              let packets, bytes = seen node dir p in
              check Alcotest.int "ifInUcast/ifOutUcast" packets (mib (oid (p + 1)));
              if packets = 0 then begin
                if contains ~needle:(Printf.sprintf "\nethswitch_%s_%d{" key p) text then
                  Alcotest.failf "gauge for idle port %s %d" key p
              end
              else begin
                expect_line (gauge (Printf.sprintf "ethswitch_%s_%d" key p) labels packets);
                expect_line
                  (gauge (Printf.sprintf "ethswitch_%s_bytes_%d" key p) labels bytes)
              end)
            [
              (Simnet.Node.Rx, "rx", Mgmt.Oid.Std.if_in_ucast);
              (Simnet.Node.Tx, "tx", Mgmt.Oid.Std.if_out_ucast);
            ]
        done)
  ]

let suite =
  [
    ("telemetry.registry", registry_tests);
    ("telemetry.golden", golden_tests);
    ("telemetry.trace", trace_tests);
    ("telemetry.integration", integration_tests);
  ]
