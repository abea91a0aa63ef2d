(* The monitoring plane end to end: the stats poller feeding series
   from a live deployment, backoff under a channel outage, SLO breach
   windows in chaos reports, and the determinism of the harmlessctl
   dashboard frames. *)

open Simnet

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let check_contains what ~needle hay =
  if not (contains ~needle hay) then
    Alcotest.failf "%s: expected %S in:\n%s" what needle hay

let demo_exn () =
  match Harmless.Dashboard.demo () with
  | Ok d -> d
  | Error m -> failwith m

let poller_tests =
  [
    tc "poller fills flow/port/rtt series from a live deployment" (fun () ->
        let d = demo_exn () in
        Harmless.Dashboard.advance d (Sim_time.ms 60);
        let p = Harmless.Dashboard.poller d in
        let module SP = Sdnctl.Stats_poller in
        check Alcotest.bool "rounds" true (SP.rounds_issued p >= 4);
        check Alcotest.bool "flow replies" true (SP.flow_replies p > 0);
        check Alcotest.bool "port replies" true (SP.port_replies p > 0);
        check Alcotest.bool "echo replies" true (SP.rtt_replies p > 0);
        check Alcotest.bool "no failures" true (SP.consecutive_failures p = 0);
        (* port stats carry the byte counters the codec now round-trips *)
        let ports = SP.latest_ports p in
        check Alcotest.bool "ports reported" true (ports <> []);
        check Alcotest.bool "bytes counted" true
          (List.exists
             (fun (s : Openflow.Of_message.port_stat) ->
               s.Openflow.Of_message.rx_bytes > 0)
             ports);
        (* every reported port has a cumulative rx series *)
        List.iter
          (fun (s : Openflow.Of_message.port_stat) ->
            match SP.port_rx_series p s.Openflow.Of_message.port_no with
            | None -> Alcotest.fail "port without rx series"
            | Some ts ->
                check Alcotest.bool "series fed" true
                  (Telemetry.Timeseries.length ts > 0))
          ports;
        (* the hairpin RTT is a positive gauge *)
        (match Telemetry.Timeseries.last (SP.rtt_series p) with
        | Some (_, rtt) -> check Alcotest.bool "rtt > 0" true (rtt > 0.)
        | None -> Alcotest.fail "no rtt sample");
        (* flow series exist for every key ever seen *)
        let keys = SP.flow_keys p in
        check Alcotest.bool "flow keys" true (keys <> []);
        List.iter
          (fun k ->
            check Alcotest.bool "bytes series" true
              (SP.flow_bytes_series p k <> None);
            check Alcotest.bool "packets series" true
              (SP.flow_packets_series p k <> None))
          keys;
        (* top_flows is rate-descending *)
        let now = Harmless.Dashboard.now_ns d in
        let top = SP.top_flows p ~n:5 ~now_ns:now ~window:(Sim_time.ms 30) in
        let rec sorted = function
          | (_, a) :: ((_, b) :: _ as rest) -> a >= b && sorted rest
          | _ -> true
        in
        check Alcotest.bool "top sorted" true (sorted top));
    tc "backoff grows during an outage and snaps back on recovery" (fun () ->
        let engine = Engine.create () in
        let d =
          match Harmless.Deployment.build_harmless engine ~num_hosts:2 () with
          | Ok d -> d
          | Error m -> failwith m
        in
        let ctrl = Sdnctl.Controller.create engine () in
        Sdnctl.Controller.add_app ctrl (Sdnctl.L2_learning.create ());
        let dpid =
          Sdnctl.Controller.attach_switch ctrl
            (Harmless.Deployment.controller_switch d)
        in
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 5));
        let period = Sim_time.ms 1 in
        let p = Sdnctl.Stats_poller.create ~period ctrl dpid in
        Sdnctl.Stats_poller.start p;
        let run span =
          Engine.run engine ~until:(Sim_time.add (Engine.now engine) span)
        in
        run (Sim_time.ms 5);
        check Alcotest.int "healthy: no failures" 0
          (Sdnctl.Stats_poller.consecutive_failures p);
        check Alcotest.int "healthy: base period" period
          (Sdnctl.Stats_poller.current_delay p);
        (* blackhole the channel; no keepalive here so the state flips
           synchronously and every poll round now counts as a failure *)
        let ch = Sdnctl.Controller.channel ctrl dpid in
        Sdnctl.Channel.set_down ch true;
        run (Sim_time.ms 40);
        let failures = Sdnctl.Stats_poller.consecutive_failures p in
        check Alcotest.bool "outage: failures accumulate" true (failures >= 2);
        check Alcotest.bool "outage: delay beyond period" true
          (Sdnctl.Stats_poller.current_delay p > period);
        check Alcotest.int "outage: delay follows the retry policy"
          (max period
             (Mgmt.Retry.delay_before_attempt Mgmt.Retry.default
                ~attempt:failures))
          (Sdnctl.Stats_poller.current_delay p);
        Sdnctl.Channel.set_down ch false;
        run (Sim_time.ms 60);
        check Alcotest.int "recovery: failures reset" 0
          (Sdnctl.Stats_poller.consecutive_failures p);
        check Alcotest.int "recovery: base period" period
          (Sdnctl.Stats_poller.current_delay p));
  ]

(* ---- SLO windows in chaos reports ---- *)

let default_script =
  "5ms   channel        down\n\
   12ms  mgmt           flaky 2\n\
   20ms  channel        up\n\
   30ms  trunk:primary  down\n"

let chaos_tests =
  [
    tc "chaos report carries SLO breach windows for the storm" (fun () ->
        let engine = Engine.create () in
        let rig =
          match Harmless.Chaos.build engine () with
          | Ok r -> r
          | Error m -> failwith m
        in
        let report =
          match
            Harmless.Chaos.run rig ~script:default_script
              ~duration:(Sim_time.ms 40) ()
          with
          | Ok r -> r
          | Error m -> failwith m
        in
        check Alcotest.bool "evaluated" true (report.slo_evaluations > 0);
        let windows =
          List.concat_map (fun (_, ws) -> ws) report.slo_breaches
        in
        check Alcotest.bool "at least one breach window" true (windows <> []);
        (* the scripted channel blackout must show up as a breach of the
           channel SLO, and the window must close once the channel heals *)
        let channel_windows =
          try List.assoc "control-channel-up" report.slo_breaches
          with Not_found -> []
        in
        check Alcotest.bool "channel SLO breached" true (channel_windows <> []);
        List.iter
          (fun (fired, resolved) ->
            check Alcotest.bool "breach within storm" true (fired > 0);
            match resolved with
            | Some r -> check Alcotest.bool "window ordered" true (r > fired)
            | None -> Alcotest.fail "channel breach never resolved")
          channel_windows;
        (* and the rendered report surfaces them *)
        let text = Format.asprintf "%a" Harmless.Chaos.pp_report report in
        check_contains "report text" ~needle:"SLO:" text;
        check_contains "report text" ~needle:"breach window" text);
  ]

(* ---- dashboard frames ---- *)

let dashboard_tests =
  [
    tc "top frame is deterministic across identical runs" (fun () ->
        (* datapath ids come from a process-global counter, so two demos
           in one process differ only there — mask that token *)
        (* ... and the gc panel reads the live runtime, so its numbers
           differ between the two frames — mask the whole line *)
        let mask frame =
          Str.global_replace (Str.regexp "dpid=0x[0-9a-f]+") "dpid=0xN" frame
          |> Str.global_replace (Str.regexp "gc: [^\n]*") "gc: <live>"
        in
        let frame () =
          let d = demo_exn () in
          Harmless.Dashboard.advance d (Sim_time.ms 60);
          mask (Harmless.Dashboard.render_top d)
        in
        let a = frame () and b = frame () in
        check Alcotest.string "identical frames" a b);
    tc "top frame shows ports, flows and alerts" (fun () ->
        let d = demo_exn () in
        Harmless.Dashboard.advance d (Sim_time.ms 60);
        let frame = Harmless.Dashboard.render_top d in
        check_contains "header" ~needle:"harmless top" frame;
        check_contains "channel" ~needle:"channel=connected" frame;
        check_contains "ports" ~needle:"ports (rates over" frame;
        check_contains "bars" ~needle:"|#" frame;
        check_contains "flows" ~needle:"flows by byte rate" frame;
        check_contains "alerts" ~needle:"alerts: 6 rule(s)" frame;
        check_contains "flow alert" ~needle:"elephant-flow" frame;
        check_contains "traffic alert" ~needle:"dataplane-active" frame;
        check_contains "gc panel" ~needle:"gc: " frame;
        check_contains "gc rule" ~needle:"gc-alloc-rate" frame;
        check_contains "engine line" ~needle:"engine: " frame;
        check_contains "queue depth" ~needle:"queue depth" frame);
    tc "alerts frame lists rules, states and transitions" (fun () ->
        let d = demo_exn () in
        Harmless.Dashboard.advance d (Sim_time.ms 60);
        let frame = Harmless.Dashboard.render_alerts d in
        check_contains "header" ~needle:"alert rules after" frame;
        check_contains "rule" ~needle:"control-channel-up" frame;
        check_contains "rule" ~needle:"stats-freshness" frame;
        (* pings are flowing, so the traffic-presence rule must have
           transitioned to firing at some point *)
        check_contains "transitions" ~needle:"dataplane-active" frame;
        check_contains "transitions" ~needle:"-> firing" frame;
        check Alcotest.bool "evaluations counted" true
          (Telemetry.Alert.evaluations (Harmless.Dashboard.alerts d) > 0));
  ]

(* ---- the no-recorder fast path must stay allocation-free ---- *)

let trace_alloc_tests =
  [
    tc "guarded Trace.emit allocates nothing when no recorder is installed"
      (fun () ->
        check Alcotest.bool "no recorder" false (Telemetry.Trace.enabled ());
        let pkt =
          Netpkt.Packet.udp
            ~dst:(Netpkt.Mac_addr.make_local 2)
            ~src:(Netpkt.Mac_addr.make_local 1)
            ~ip_src:(Netpkt.Ipv4_addr.of_string "10.9.0.1")
            ~ip_dst:(Netpkt.Ipv4_addr.of_string "10.9.0.2")
            ~src_port:1 ~dst_port:2 "x"
        in
        let emit_guarded () =
          if Telemetry.Trace.enabled () then
            Telemetry.Trace.emit ~ts_ns:0 ~component:"test"
              ~layer:Telemetry.Trace.Host ~stage:"noop" pkt
        in
        emit_guarded ();
        let before = Gc.minor_words () in
        for _ = 1 to 10_000 do
          emit_guarded ()
        done;
        let delta = Gc.minor_words () -. before in
        if delta > 256. then
          Alcotest.failf "no-op emit allocated %.0f minor words over 10k calls"
            delta);
  ]

let suite =
  [
    ("stats_poller", poller_tests);
    ("chaos_slo", chaos_tests);
    ("dashboard", dashboard_tests);
    ("trace_alloc", trace_alloc_tests);
  ]
