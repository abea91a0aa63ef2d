(* harmlessctl — the operator's view of the library: price a migration,
   dry-run a provisioning, inspect the generated device configuration.

     dune exec bin/harmlessctl.exe -- cost --ports 48
     dune exec bin/harmlessctl.exe -- provision --ports 24 --vendor eos
     dune exec bin/harmlessctl.exe -- config --ports 8 --vendor ios
     dune exec bin/harmlessctl.exe -- walkthrough *)

open Cmdliner

let vendor_conv =
  let parse = function
    | "ios" -> Ok Mgmt.Device.Cisco_like
    | "eos" -> Ok Mgmt.Device.Arista_like
    | "junos" -> Ok Mgmt.Device.Juniper_like
    | s -> Error (`Msg (Printf.sprintf "unknown vendor %S (ios, eos or junos)" s))
  in
  let print fmt v =
    Format.pp_print_string fmt
      (match v with
      | Mgmt.Device.Cisco_like -> "ios"
      | Mgmt.Device.Arista_like -> "eos"
      | Mgmt.Device.Juniper_like -> "junos")
  in
  Arg.conv (parse, print)

let ports_arg =
  Arg.(value & opt int 24 & info [ "ports" ] ~docv:"N" ~doc:"Access ports to migrate.")

let vendor_arg =
  Arg.(
    value
    & opt vendor_conv Mgmt.Device.Cisco_like
    & info [ "vendor" ] ~docv:"VENDOR" ~doc:"NOS dialect of the legacy switch (ios|eos|junos).")

let base_vid_arg =
  Arg.(value & opt int 101 & info [ "base-vid" ] ~docv:"VID" ~doc:"First VLAN id of the mapping.")

(* ---- cost ---- *)

let run_cost ports =
  Format.printf "Migration options for %d OpenFlow ports:@.@." ports;
  List.iter
    (fun bill -> Format.printf "%a@." Costmodel.Scenario.pp_bill bill)
    (Costmodel.Scenario.all ~ports);
  Format.printf "HARMLESS (brownfield) saves %.0f%% vs COTS SDN.@."
    (100.0 *. Costmodel.Cost.savings_vs_cots ~ports)

let cost_cmd =
  Cmd.v
    (Cmd.info "cost" ~doc:"price every migration strategy for a port count")
    Term.(const run_cost $ ports_arg)

(* ---- shared: build a device ---- *)

let build_device ~ports ~vendor =
  let engine = Simnet.Engine.create () in
  let switch =
    Ethswitch.Legacy_switch.create engine ~name:"target-sw" ~ports:(ports + 1) ()
  in
  (engine, Mgmt.Device.create ~switch ~vendor ())

(* ---- provision (dry run against a simulated device) ---- *)

let run_provision ports vendor base_vid =
  let engine, device = build_device ~ports ~vendor in
  match
    Harmless.Manager.provision engine ~device ~trunk_port:ports
      ~access_ports:(List.init ports Fun.id) ~base_vid ()
  with
  | Error msg ->
      Printf.eprintf "provisioning failed: %s\n" msg;
      exit 1
  | Ok prov ->
      print_endline "Provisioning succeeded; the Manager did:";
      List.iter (Printf.printf "  - %s\n")
        prov.Harmless.Manager.report.Harmless.Manager.steps;
      Printf.printf "\nConfig changes applied (%d):\n"
        (List.length prov.Harmless.Manager.report.Harmless.Manager.config_diff);
      List.iter (Printf.printf "  %s\n")
        prov.Harmless.Manager.report.Harmless.Manager.config_diff;
      Printf.printf "\nResulting running configuration (%s dialect):\n\n"
        (let (module D) = Mgmt.Device.dialect device in
         D.name);
      print_string (Mgmt.Device.running_config_text device)

let provision_cmd =
  Cmd.v
    (Cmd.info "provision" ~doc:"dry-run the Manager against a simulated device")
    Term.(const run_provision $ ports_arg $ vendor_arg $ base_vid_arg)

(* ---- config (print the candidate only) ---- *)

let run_config ports vendor base_vid =
  let _engine, device = build_device ~ports ~vendor in
  (* Render what the Manager *would* push, without committing. *)
  let (module D) = Mgmt.Device.dialect device in
  let stanzas =
    List.init (ports + 1) (fun port ->
        if port < ports then
          {
            Mgmt.Device_config.port;
            mode = Ethswitch.Port_config.Access (base_vid + port);
            description = Some (Printf.sprintf "HARMLESS access (vlan %d)" (base_vid + port));
          }
        else
          {
            Mgmt.Device_config.port;
            mode =
              Ethswitch.Port_config.Trunk
                {
                  native = None;
                  allowed =
                    Ethswitch.Port_config.Only (List.init ports (fun i -> base_vid + i));
                };
            description = Some "HARMLESS trunk to soft-switch server";
          })
  in
  print_string (D.render (Mgmt.Device_config.make ~hostname:"target-sw" stanzas))

let config_cmd =
  Cmd.v
    (Cmd.info "config" ~doc:"print the candidate configuration the Manager would push")
    Term.(const run_config $ ports_arg $ vendor_arg $ base_vid_arg)

(* ---- pcap: capture the Fig. 1 walk into a file ---- *)

let run_pcap out =
  let engine = Simnet.Engine.create () in
  let deployment =
    match Harmless.Deployment.build_harmless engine ~num_hosts:4 () with
    | Ok d -> d
    | Error msg -> failwith msg
  in
  let ctrl = Sdnctl.Controller.create engine () in
  Sdnctl.Controller.add_app ctrl (Sdnctl.L2_learning.create ());
  ignore
    (Sdnctl.Controller.attach_switch ctrl
       (Harmless.Deployment.controller_switch deployment));
  Simnet.Engine.run engine ~until:(Simnet.Sim_time.of_ns (Simnet.Sim_time.ms 5));
  let capture = Simnet.Capture.create () in
  (match deployment.Harmless.Deployment.kind with
  | Harmless.Deployment.Harmless { legacy; prov; _ } ->
      Simnet.Capture.attach capture (Ethswitch.Legacy_switch.node legacy);
      Simnet.Capture.attach capture
        (Softswitch.Soft_switch.node prov.Harmless.Manager.ss1)
  | _ -> ());
  let h0 = Harmless.Deployment.host deployment 0 in
  Simnet.Host.ping h0
    ~dst_mac:(Harmless.Deployment.host_mac 1)
    ~dst_ip:(Harmless.Deployment.host_ip 1)
    ~seq:1;
  Simnet.Engine.run engine ~until:(Simnet.Sim_time.of_ns (Simnet.Sim_time.ms 50));
  Simnet.Capture.save_pcap capture ~path:out;
  Printf.printf "wrote %s (%d frames; open it in wireshark to see the VLAN tags)\n"
    out
    (Simnet.Capture.count capture (fun e -> e.Simnet.Capture.dir = Simnet.Node.Rx))

let pcap_out =
  Arg.(value & opt string "harmless-fig1.pcap"
       & info [ "out" ] ~docv:"FILE" ~doc:"Output pcap path.")

let pcap_cmd =
  Cmd.v
    (Cmd.info "pcap" ~doc:"capture the Fig. 1 ping into a pcap file")
    Term.(const run_pcap $ pcap_out)

(* ---- shared: the quickstart scenario ----

   A 4-host HARMLESS deployment with an L2-learning controller.  Runs
   the control-plane handshake, then a warm-up ping (h0 -> h1) so MAC
   tables and flow tables reach steady state, leaving the engine at
   t = 50 ms ready for an observed second ping. *)

let build_scenario () =
  let engine = Simnet.Engine.create () in
  let deployment =
    match Harmless.Deployment.build_harmless engine ~num_hosts:4 () with
    | Ok d -> d
    | Error msg -> failwith msg
  in
  let ctrl = Sdnctl.Controller.create engine () in
  Sdnctl.Controller.add_app ctrl (Sdnctl.L2_learning.create ());
  ignore
    (Sdnctl.Controller.attach_switch ctrl
       (Harmless.Deployment.controller_switch deployment));
  Simnet.Engine.run engine ~until:(Simnet.Sim_time.of_ns (Simnet.Sim_time.ms 5));
  let ping ~seq src dst =
    Simnet.Host.ping
      (Harmless.Deployment.host deployment src)
      ~dst_mac:(Harmless.Deployment.host_mac dst)
      ~dst_ip:(Harmless.Deployment.host_ip dst)
      ~seq
  in
  ping ~seq:1 0 1;
  Simnet.Engine.run engine ~until:(Simnet.Sim_time.of_ns (Simnet.Sim_time.ms 50));
  (engine, deployment, ctrl, ping)

(* ---- trace: hop-by-hop packet walk ---- *)

let run_trace format chrome_out =
  let engine, deployment, _ctrl, ping = build_scenario () in
  (* Steady state reached: trace the second ping. *)
  let recorder =
    Telemetry.Trace.with_recorder (fun r ->
        ping ~seq:2 0 1;
        Simnet.Engine.run engine
          ~until:(Simnet.Sim_time.of_ns (Simnet.Sim_time.ms 100));
        r)
  in
  let traces = Telemetry.Trace.traces recorder in
  let view = Harmless.Trace_view.of_deployment deployment in
  let spans =
    Telemetry.Span.of_traces
      ~stage_of:(Harmless.Trace_view.semantic view)
      traces
  in
  (match format with
  | `Text ->
      Format.printf
        "ping h0 -> h1 through the HARMLESS deployment (steady state):@.@.";
      List.iter
        (fun tr -> Format.printf "%a@." (Harmless.Trace_view.pp_trace view) tr)
        traces
  | `Chrome -> print_endline (Telemetry.Chrome_trace.to_string ~spans recorder)
  | `Collapsed -> print_string (Telemetry.Span.to_collapsed spans));
  match chrome_out with
  | None -> ()
  | Some path -> (
      match Telemetry.Chrome_trace.save ~path ~spans recorder with
      | () ->
          Printf.eprintf
            "wrote %s (%d events; load it in chrome://tracing or Perfetto)\n"
            path
            (List.length (Telemetry.Trace.hops recorder))
      | exception Sys_error msg ->
          Printf.eprintf "cannot write chrome trace: %s\n" msg;
          exit 1)

let trace_format_arg =
  let fmt_conv =
    Arg.enum [ ("text", `Text); ("chrome", `Chrome); ("collapsed", `Collapsed) ]
  in
  Arg.(
    value
    & opt fmt_conv `Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Output format: $(b,text) (hop-by-hop narrative), $(b,chrome) \
           (trace-event JSON for chrome://tracing / Perfetto, span events \
           included) or $(b,collapsed) (flamegraph.pl collapsed stacks — \
           paste into speedscope.app).")

let chrome_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome" ] ~docv:"FILE"
        ~doc:
          "Also export the hops (and derived spans) as a Chrome \
           trace-event JSON file, regardless of $(b,--format).")

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:"trace a ping hop-by-hop through the HARMLESS data path")
    Term.(const run_trace $ trace_format_arg $ chrome_arg)

(* ---- metrics: registry snapshot ---- *)

let run_metrics format =
  let engine, deployment, ctrl, _ping = build_scenario () in
  let registry = Telemetry.Registry.default in
  Simnet.Engine.publish_metrics ~registry engine;
  Sdnctl.Controller.publish_metrics ~registry ctrl;
  (match deployment.Harmless.Deployment.kind with
  | Harmless.Deployment.Harmless { legacy; prov; _ } ->
      Ethswitch.Legacy_switch.publish_metrics ~registry legacy;
      Softswitch.Soft_switch.publish_metrics ~registry
        prov.Harmless.Manager.ss1;
      Softswitch.Soft_switch.publish_metrics ~registry
        prov.Harmless.Manager.ss2
  | _ -> ());
  match format with
  | `Prometheus -> print_string (Telemetry.Registry.to_prometheus registry)
  | `Json ->
      print_endline (Telemetry.Registry.to_json registry)

let metrics_format_arg =
  let fmt_conv =
    Arg.enum [ ("prometheus", `Prometheus); ("prom", `Prometheus); ("json", `Json) ]
  in
  Arg.(
    value
    & opt fmt_conv `Prometheus
    & info [ "format" ] ~docv:"FMT"
        ~doc:"Exposition format: $(b,prometheus) (text) or $(b,json).")

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"run the quickstart scenario and dump the metrics registry")
    Term.(const run_metrics $ metrics_format_arg)

(* ---- chaos: scripted fault injection with a recovery report ---- *)

let default_chaos_script =
  "# chaos default: controller blackout mid-traffic, then a trunk failure\n\
   5ms   channel        down\n\
   12ms  mgmt           flaky 2\n\
   20ms  channel        up\n\
   30ms  trunk:primary  down\n"

let run_chaos hosts duration_ms script_path seed mode failback ping_us
    postmortem_path =
  let script =
    match script_path with
    | None -> default_chaos_script
    | Some path -> (
        match In_channel.with_open_text path In_channel.input_all with
        | s -> s
        | exception Sys_error msg ->
            Printf.eprintf "cannot read script: %s\n" msg;
            exit 1)
  in
  let engine = Simnet.Engine.create () in
  let rig =
    match
      Harmless.Chaos.build engine ~num_hosts:hosts ~seed ~mode ~failback ()
    with
    | Ok rig -> rig
    | Error msg ->
        Printf.eprintf "chaos rig failed to provision: %s\n" msg;
        exit 1
  in
  Format.printf "fault targets: %s@.@."
    (String.concat ", "
       (Simnet.Fault.targets (Harmless.Chaos.injector rig)));
  match
    Harmless.Chaos.run rig ~script
      ~duration:(Simnet.Sim_time.ms duration_ms)
      ~ping_interval:(Simnet.Sim_time.us ping_us) ()
  with
  | Error msg ->
      Printf.eprintf "chaos run failed: %s\n" msg;
      exit 1
  | Ok report ->
      Format.printf "%a@." Harmless.Chaos.pp_report report;
      (match (postmortem_path, report.Harmless.Chaos.postmortem) with
      | None, _ -> ()
      | Some path, Some snap ->
          Telemetry.Postmortem.save snap ~path;
          Printf.printf "post-mortem written to %s\n" path
      | Some _, None ->
          prerr_endline
            "no post-mortem captured: no trigger (fault, firing alert, \
             rollback) fired");
      if not report.Harmless.Chaos.recovered then exit 2

let chaos_hosts_arg =
  Arg.(value & opt int 3 & info [ "hosts" ] ~docv:"N" ~doc:"Hosts on the legacy switch.")

let chaos_duration_arg =
  Arg.(
    value & opt int 60
    & info [ "duration" ] ~docv:"MS" ~doc:"Sim-time length of the storm, in milliseconds.")

let chaos_script_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "script" ] ~docv:"FILE"
        ~doc:
          "Fault script (one event per line: $(i,TIME TARGET ACTION), e.g. \
           '20ms channel down').  Default: a controller blackout followed \
           by a trunk failure.")

let chaos_seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Seed for the management fault plan.")

let chaos_mode_arg =
  let mode_conv =
    Arg.enum
      [
        ("standalone", Softswitch.Soft_switch.Fail_standalone);
        ("secure", Softswitch.Soft_switch.Fail_secure);
      ]
  in
  Arg.(
    value
    & opt mode_conv Softswitch.Soft_switch.Fail_standalone
    & info [ "mode" ] ~docv:"MODE"
        ~doc:
          "SS_2 behaviour while the controller is unreachable: \
           $(b,standalone) (local L2 learning) or $(b,secure) (drop \
           would-be punts).")

let chaos_failback_arg =
  Arg.(
    value & flag
    & info [ "failback" ]
        ~doc:"Keep the watchdog running after failover and return to the \
              primary trunk when it recovers.")

let chaos_ping_arg =
  Arg.(
    value & opt int 1000
    & info [ "ping-interval" ] ~docv:"US"
        ~doc:"Probe-traffic spacing in microseconds.")

let chaos_postmortem_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "postmortem" ] ~docv:"FILE"
        ~doc:
          "Write the captured post-mortem snapshot here (render it with \
           $(b,harmlessctl postmortem)).  The run always records; a \
           snapshot exists whenever a trigger — a fault injection, an \
           alert going firing, a rollback — landed in the event log.")

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"inject scripted faults into a live deployment and report recovery"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Builds a redundant-trunk HARMLESS deployment (hosts, legacy \
              switch, SS_1/SS_2, L2-learning controller with keepalive, \
              failover watchdog), runs a scripted fault schedule against it \
              under steady probe traffic, and prints what broke, what the \
              recovery machinery did (reconnects, resyncs, retries, \
              failovers) and whether every host pair was reachable \
              afterwards.  Exit status 2 if the deployment did not recover.";
         ])
    Term.(
      const run_chaos $ chaos_hosts_arg $ chaos_duration_arg
      $ chaos_script_arg $ chaos_seed_arg $ chaos_mode_arg
      $ chaos_failback_arg $ chaos_ping_arg $ chaos_postmortem_arg)

(* ---- top / alerts: the monitoring plane ---- *)

let build_dashboard duration_ms =
  match Harmless.Dashboard.demo () with
  | Error msg ->
      Printf.eprintf "dashboard demo failed to build: %s\n" msg;
      exit 1
  | Ok dash ->
      Harmless.Dashboard.advance dash (Simnet.Sim_time.ms duration_ms);
      dash

let run_top once duration_ms refresh_ms top_n window_ms =
  let window = Simnet.Sim_time.ms window_ms in
  if once then
    print_string
      (Harmless.Dashboard.render_top ~top_n ~window (build_dashboard duration_ms))
  else begin
    (* "Live": advance the simulation one refresh interval per frame. *)
    let dash = build_dashboard refresh_ms in
    let frames = max 1 (duration_ms / max 1 refresh_ms) in
    for frame = 1 to frames do
      if frame > 1 then
        Harmless.Dashboard.advance dash (Simnet.Sim_time.ms refresh_ms);
      print_string "\x1b[2J\x1b[H";
      print_string (Harmless.Dashboard.render_top ~top_n ~window dash);
      flush stdout
    done
  end

let top_once_arg =
  Arg.(
    value & flag
    & info [ "once" ]
        ~doc:"Render a single frame after the full run instead of refreshing.")

let top_duration_arg =
  Arg.(
    value & opt int 100
    & info [ "duration" ] ~docv:"MS"
        ~doc:"Sim time to drive traffic for, in milliseconds.")

let top_refresh_arg =
  Arg.(
    value & opt int 20
    & info [ "refresh" ] ~docv:"MS"
        ~doc:"Sim time between frames when not using $(b,--once).")

let top_n_arg =
  Arg.(value & opt int 5 & info [ "top" ] ~docv:"N" ~doc:"Flows to show.")

let top_window_arg =
  Arg.(
    value & opt int 30
    & info [ "window" ] ~docv:"MS" ~doc:"Rate window, in milliseconds.")

let top_cmd =
  Cmd.v
    (Cmd.info "top"
       ~doc:"live dashboard over polled OpenFlow statistics"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Builds the quickstart deployment with a stats poller on the \
              OpenFlow switch, drives probe traffic, and renders per-port \
              utilization bars, the top flows by byte rate and the alert \
              summary — all derived from polled flow-stats/port-stats \
              replies, i.e. what an operator's collector would see.  \
              Deterministic: the same flags always render the same frames.";
         ])
    Term.(
      const run_top $ top_once_arg $ top_duration_arg $ top_refresh_arg
      $ top_n_arg $ top_window_arg)

let run_alerts _eval_once duration_ms =
  print_string (Harmless.Dashboard.render_alerts (build_dashboard duration_ms))

let alerts_eval_once_arg =
  Arg.(
    value & flag
    & info [ "eval-once" ]
        ~doc:"Evaluate over one scripted run and print the final rule \
              states and transition log (the default behaviour, named for \
              scripting).")

let alerts_cmd =
  Cmd.v
    (Cmd.info "alerts"
       ~doc:"evaluate the demo SLO rules and print states and transitions")
    Term.(const run_alerts $ alerts_eval_once_arg $ top_duration_arg)

(* ---- flows ---- *)

let run_flows report seed hosts top_n duration_ms format =
  if report then begin
    let config = { Harmless.Flow_rig.default_config with seed; hosts } in
    let r = Harmless.Flow_rig.run ~config () in
    (match format with
    | "json" ->
        let open Telemetry.Json in
        print_endline
          (to_string
             (Obj
                [
                  ("seed", Int r.Harmless.Flow_rig.rp_seed);
                  ("flows", Int r.Harmless.Flow_rig.rp_flows);
                  ("packets", Int r.Harmless.Flow_rig.rp_packets);
                  ("sampled", Int r.Harmless.Flow_rig.rp_sampled);
                  ("hh_expected", Int r.Harmless.Flow_rig.rp_hh_expected);
                  ("hh_reported", Int r.Harmless.Flow_rig.rp_hh_reported);
                  ("hh_recall", Float r.Harmless.Flow_rig.rp_hh_recall);
                  ( "cm_overestimate_ok",
                    Bool r.Harmless.Flow_rig.rp_cm_overestimate_ok );
                  ("cm_max_err", Int r.Harmless.Flow_rig.rp_cm_max_err);
                  ("cm_bound", Int r.Harmless.Flow_rig.rp_cm_bound);
                  ( "cm_within_frac",
                    Float r.Harmless.Flow_rig.rp_cm_within_frac );
                  ("est_hosts", Float r.Harmless.Flow_rig.rp_est_hosts);
                  ("hll_rel_err", Float r.Harmless.Flow_rig.rp_hll_rel_err);
                  ("ok", Bool r.Harmless.Flow_rig.rp_ok);
                ]))
    | _ -> print_string (Harmless.Flow_rig.render r));
    if not r.Harmless.Flow_rig.rp_ok then exit 4
  end
  else
    let dash = build_dashboard duration_ms in
    match format with
    | "json" ->
        print_endline
          (Telemetry.Json.to_string
             (Sdnctl.Flow_collector.to_json ~k:top_n
                (Harmless.Dashboard.flow_collector dash)))
    | _ -> print_string (Harmless.Dashboard.render_flows ~top_n dash)

let flows_report_arg =
  Arg.(
    value & flag
    & info [ "report" ]
        ~doc:
          "Run the sketch accuracy rig (seeded Zipf elephant/mice workload \
           through a sampled fabric) and print estimated-vs-exact error \
           against the analytical bounds.  Exit status 4 if any bound is \
           violated.")

let flows_seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"N" ~doc:"Workload seed for $(b,--report).")

let flows_hosts_arg =
  Arg.(
    value & opt int 100_000
    & info [ "hosts" ] ~docv:"N"
        ~doc:"Distinct source hosts in the $(b,--report) workload.")

let flows_top_arg =
  Arg.(
    value & opt int 10
    & info [ "top" ] ~docv:"K" ~doc:"Heavy hitters to show.")

let flows_format_arg =
  Arg.(
    value
    & opt (enum [ ("text", "text"); ("json", "json") ]) "text"
    & info [ "format" ] ~docv:"FMT" ~doc:"Output format (text or json).")

let flows_cmd =
  Cmd.v
    (Cmd.info "flows"
       ~doc:"sampled flow telemetry: heavy hitters, cardinality, accuracy rig"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Without flags: build the quickstart deployment with a sampled \
              flow recorder on the OpenFlow switch, drive probe traffic, \
              and print the merged heavy-hitters panel — estimated bytes \
              per flow from a count-min/top-k sketch plane whose memory is \
              fixed regardless of flow count, plus the HyperLogLog estimate \
              of distinct source hosts.";
           `P
             "With $(b,--report): replay a seeded heavy-tailed workload \
              (Zipf sources, elephants and mice, a census segment pinning \
              true cardinality) through a 4-switch fabric and check the \
              sketch estimates against exact references: heavy-hitter \
              recall must be total, count-min queries overestimate-only \
              and within the epsilon bound, HLL within 5%.  Deterministic \
              per seed: the same invocation prints byte-identical output.";
         ])
    Term.(
      const run_flows $ flows_report_arg $ flows_seed_arg $ flows_hosts_arg
      $ flows_top_arg $ top_duration_arg $ flows_format_arg)

(* ---- fuzz ---- *)

(* Shared by [fuzz] and [policy check].  [replay_repro] answers whether
   the repro still fails. *)
let replay_repro ~load ~pp path =
  match load ~path with
  | Error e ->
      Printf.printf "%s: parse error: %s\n" path e;
      true
  | Ok None ->
      Printf.printf "%s: no divergence (bug is fixed)\n" path;
      false
  | Ok (Some d) ->
      Format.printf "%s reproduces:@.%a@." path pp d;
      true

(* Print each divergence and save it as [<dir>/<prefix><n>.repro]. *)
let repro_saver ~dir ~prefix ~pp ~save =
  let saved = ref 0 in
  fun d ->
    Format.printf "@.%a@." pp d;
    (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
    let path = Filename.concat dir (Printf.sprintf "%s%d.repro" prefix !saved) in
    incr saved;
    save ~path d;
    Printf.printf "repro written to %s\n" path

(* Run a seed loop and print its report line; true if anything diverged. *)
let report_run label run =
  let t0 = Unix.gettimeofday () in
  let (r : _ Check.Fuzz.report) = run () in
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf
    "%-10s %d cases, %d packet comparisons, %d divergences (%.0f cases/s)\n"
    label r.cases r.packets
    (List.length r.divergences)
    (float_of_int r.cases /. Float.max 1e-9 dt);
  r.divergences <> []

let run_fuzz cases seed repro_dir replay =
  let failed = ref false in
  (match replay with
  | Some path ->
      (* replay a pinned repro instead of random generation *)
      failed :=
        replay_repro ~load:Check.Differential.load
          ~pp:Check.Differential.pp_divergence path
  | None ->
      (* differential: every backend against the oracle *)
      let on_divergence =
        repro_saver ~dir:repro_dir ~prefix:"divergence_"
          ~pp:Check.Differential.pp_divergence
          ~save:(fun ~path (d : Check.Differential.divergence) ->
            Check.Differential.save ~path
              ~comment:
                (Printf.sprintf "backend %s diverged at step %d" d.backend
                   d.step_index)
              d.scenario)
      in
      if
        report_run "differential:" (fun () ->
            Check.Differential.run ~on_divergence ~seed ~cases ())
      then failed := true;
      (* codec: parse totality + re-encode fixpoint *)
      let t0 = Unix.gettimeofday () in
      let c = Check.Codec_fuzz.run ~seed ~cases:(4 * cases) in
      let dt = Unix.gettimeofday () -. t0 in
      List.iter
        (fun f -> Format.printf "%a@." Check.Codec_fuzz.pp_failure f)
        c.Check.Codec_fuzz.failures;
      Printf.printf
        "codec: %d cases, %d decoded, %d rejected, %d failures (%.0f cases/s)\n"
        c.Check.Codec_fuzz.cases c.decoded c.rejected
        (List.length c.failures)
        (float_of_int c.Check.Codec_fuzz.cases /. Float.max 1e-9 dt);
      if c.Check.Codec_fuzz.failures <> [] then failed := true;
      (* transparency: hairpin invariant over random port maps *)
      let violations = ref 0 in
      let hairpin_seeds = max 1 (cases / 100) in
      for s = seed to seed + hairpin_seeds - 1 do
        let vs = Check.Transparency_oracle.check_hairpin ~seed:s in
        violations := !violations + List.length vs;
        List.iter
          (fun v ->
            Format.printf "seed %d: %a@." s
              Check.Transparency_oracle.pp_violation v)
          vs
      done;
      Printf.printf "transparency: %d port maps, %d violations\n"
        hairpin_seeds !violations;
      if !violations > 0 then failed := true);
  if !failed then exit 1

let fuzz_cases_arg =
  Arg.(
    value & opt int 1000
    & info [ "cases" ] ~docv:"N" ~doc:"Differential scenarios to run (the codec fuzzer runs 4x as many).")

let fuzz_seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Base RNG seed.")

let fuzz_dir_arg =
  Arg.(
    value & opt string "fuzz-repros"
    & info [ "dir" ] ~docv:"DIR" ~doc:"Where to write shrunk divergence repros.")

let fuzz_replay_arg =
  Arg.(
    value & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:"Replay a pinned repro file instead of fuzzing; exits nonzero if it still diverges.")

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "differentially fuzz every dataplane backend against the spec \
          oracle, fuzz the OpenFlow codec, and check the SS_1 hairpin \
          invariant; exits nonzero on any divergence")
    Term.(
      const run_fuzz $ fuzz_cases_arg $ fuzz_seed_arg $ fuzz_dir_arg
      $ fuzz_replay_arg)

(* ---- policy: compile dump + differential equivalence ---- *)

let run_policy_compile spec_name =
  match Check.Policy_equiv.find_spec spec_name with
  | None ->
      Printf.eprintf "policy compile: unknown spec %S (have: %s)\n" spec_name
        (String.concat ", "
           (List.map
              (fun s -> s.Check.Policy_equiv.spec_name)
              (Check.Policy_equiv.specs ())));
      exit 2
  | Some spec ->
      let c = Policy.Compile.compile spec.Check.Policy_equiv.policy in
      print_string (Policy.Compile.render c)

let run_policy_check cases seed repro_dir replay only =
  let failed = ref false in
  (match replay with
  | Some path ->
      failed :=
        replay_repro ~load:Check.Policy_equiv.load
          ~pp:Check.Policy_equiv.pp_divergence path
  | None ->
      let specs =
        match only with
        | None -> Check.Policy_equiv.specs ()
        | Some name -> (
            match Check.Policy_equiv.find_spec name with
            | Some s -> [ s ]
            | None ->
                Printf.eprintf "policy check: unknown spec %S\n" name;
                exit 2)
      in
      let on_divergence =
        repro_saver ~dir:repro_dir ~prefix:"policy_divergence_"
          ~pp:Check.Policy_equiv.pp_divergence
          ~save:(fun ~path (d : Check.Policy_equiv.divergence) ->
            Check.Policy_equiv.save ~path
              ~comment:(Printf.sprintf "%s diverged at step %d" d.impl d.step_index)
              d.case)
      in
      List.iter
        (fun spec ->
          if
            report_run spec.Check.Policy_equiv.spec_name (fun () ->
                Check.Policy_equiv.run ~on_divergence ~spec ~seed ~cases ())
          then failed := true)
        specs);
  if !failed then exit 1

let policy_spec_pos_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SPEC"
        ~doc:"Spec to compile: dmz, lb, parental, ratelimit or gateway.")

let policy_compile_cmd =
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "compile a built-in scenario's policy to a single flow table and \
          print the rendered rules (the format committed as goldens)")
    Term.(const run_policy_compile $ policy_spec_pos_arg)

let policy_check_cases_arg =
  Arg.(
    value & opt int 1000
    & info [ "cases" ] ~docv:"N" ~doc:"Fuzzed packet sequences per spec.")

let policy_check_dir_arg =
  Arg.(
    value & opt string "policy-repros"
    & info [ "dir" ] ~docv:"DIR"
        ~doc:"Where to write shrunk divergence repros.")

let policy_check_replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Replay a pinned repro file instead of fuzzing; exits nonzero if \
           it still diverges.")

let policy_check_spec_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "spec" ] ~docv:"SPEC" ~doc:"Check only this spec (default: all).")

let policy_check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "replay fuzzed packets through the policy interpreter and the \
          compiled table on every backend, comparing outputs and table \
          misses; exits nonzero on any divergence")
    Term.(
      const run_policy_check $ policy_check_cases_arg $ fuzz_seed_arg
      $ policy_check_dir_arg $ policy_check_replay_arg
      $ policy_check_spec_arg)

let policy_cmd =
  Cmd.group
    (Cmd.info "policy"
       ~doc:
         "compile the SS_2 apps' NetKAT-lite policies to flow tables and \
          fuzz the tables against the policy interpreter")
    [ policy_compile_cmd; policy_check_cmd ]

(* ---- gc: memory telemetry over the quickstart scenario ---- *)

let run_gc duration_ms =
  if duration_ms <= 0 then begin
    prerr_endline "gc: --duration must be positive";
    exit 2
  end;
  let engine, deployment, _ctrl, ping = build_scenario () in
  Simnet.Engine.enable_telemetry ~sample_every:16 engine;
  let gcstats = Telemetry.Gcstats.create () in
  let window = Simnet.Sim_time.ms 30 in
  let stop =
    Simnet.Sim_time.add (Simnet.Engine.now engine)
      (Simnet.Sim_time.ms duration_ms)
  in
  let n = Harmless.Deployment.num_hosts deployment in
  let seq = ref 1 in
  let rec traffic k =
    if Simnet.Sim_time.( < ) (Simnet.Engine.now engine) stop then begin
      incr seq;
      ping ~seq:!seq (k mod n) ((k + 1) mod n);
      Simnet.Engine.schedule_after engine (Simnet.Sim_time.ms 1) (fun () ->
          traffic (k + 1))
    end
  in
  traffic 0;
  Simnet.Engine.schedule_every engine (Simnet.Sim_time.ms 2) (fun () ->
      let now = Simnet.Engine.now engine in
      if Simnet.Sim_time.( <= ) now stop then
        Telemetry.Gcstats.sample gcstats ~ts_ns:(Simnet.Sim_time.to_ns now);
      Simnet.Sim_time.( < ) now stop);
  Simnet.Engine.run engine ~until:stop;
  let now_ns = Simnet.Sim_time.to_ns (Simnet.Engine.now engine) in
  Printf.printf "memory telemetry — %d ms of probe traffic\n\n" duration_ms;
  print_string (Telemetry.Gcstats.panel gcstats ~now_ns ~window);
  (match
     ( Simnet.Engine.queue_depth_series engine,
       Simnet.Engine.scheduling_lag_series engine )
   with
  | Some depth, Some lag ->
      let last series =
        match Telemetry.Timeseries.last series with
        | Some (_, v) -> Printf.sprintf "%.0f" v
        | None -> "-"
      in
      Printf.printf "engine: %d events, queue depth %s, sched lag %sns\n"
        (Simnet.Engine.events_executed engine)
        (last depth) (last lag)
  | _ -> ())

let gc_duration_arg =
  Arg.(
    value & opt int 100
    & info [ "duration" ] ~docv:"MS"
        ~doc:"Sim-time milliseconds of probe traffic to run.")

let gc_cmd =
  Cmd.v
    (Cmd.info "gc"
       ~doc:"GC pressure and engine queue telemetry for the demo"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the quickstart scenario with the engine's queue telemetry \
              on: probe pings cycle through the hosts while the GC is \
              sampled every 2 ms of sim time.  Prints the GC panel (alloc \
              rate, collections, heap size) and the engine's sampled queue \
              depth and scheduling lag.  GC collection counts depend on the \
              live runtime.  For measured per-layer words and nanoseconds, \
              run bench/e2e/run.sh with --trace 1.";
         ])
    Term.(const run_gc $ gc_duration_arg)

(* ---- perf: attribution report and bench-regression gating ---- *)

let load_snapshot_or_die ~what path =
  match Telemetry.Bench_history.load_snapshot ~path with
  | Ok snap -> snap
  | Error msg ->
      Printf.eprintf "cannot load %s %s: %s\n" what path msg;
      exit 1

let thresholds_of ~quick_tolerant =
  if quick_tolerant then Telemetry.Bench_history.quick_tolerant
  else Telemetry.Bench_history.default_thresholds

let run_perf_report hosts pings =
  match Harmless.Perf_rig.run ~num_hosts:hosts ~pings () with
  | Error msg ->
      Printf.eprintf "perf rig failed: %s\n" msg;
      exit 1
  | Ok report -> print_string (Harmless.Perf_rig.attribution report)

let run_perf_diff baseline current quick_tolerant =
  let baseline = load_snapshot_or_die ~what:"baseline" baseline in
  let current = load_snapshot_or_die ~what:"current" current in
  let comparisons =
    Telemetry.Bench_history.diff
      ~thresholds:(thresholds_of ~quick_tolerant)
      ~baseline ~current ()
  in
  print_string (Telemetry.Bench_history.render_table comparisons)

let run_perf_check baseline current quick_tolerant =
  let baseline = load_snapshot_or_die ~what:"baseline" baseline in
  let current = load_snapshot_or_die ~what:"current" current in
  let comparisons =
    Telemetry.Bench_history.diff
      ~thresholds:(thresholds_of ~quick_tolerant)
      ~baseline ~current ()
  in
  print_string (Telemetry.Bench_history.render_table comparisons);
  match Telemetry.Bench_history.regressions comparisons with
  | [] -> print_endline "perf check: OK"
  | regressed ->
      Printf.printf "perf check: FAILED — %d benchmark(s) regressed\n"
        (List.length regressed);
      exit 3

let perf_hosts_arg =
  Arg.(value & opt int 4 & info [ "hosts" ] ~docv:"N" ~doc:"Hosts per deployment.")

let perf_pings_arg =
  Arg.(
    value & opt int 40
    & info [ "pings" ] ~docv:"N" ~doc:"Measured pings per deployment (after warm-up).")

let baseline_arg =
  Arg.(
    value & opt string "BENCH_baseline.json"
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:
          "Baseline bench snapshot: a $(b,bench --json) file or a JSONL \
           history (newest entry wins).")

let current_arg =
  Arg.(
    value & opt string "BENCH_results.json"
    & info [ "current" ] ~docv:"FILE" ~doc:"Current bench snapshot (same formats).")

let quick_tolerant_arg =
  Arg.(
    value & flag
    & info [ "quick-tolerant" ]
        ~doc:
          "Widen the noise thresholds for $(b,--quick) bench runs: time 60% \
           relative + 25 ns absolute (vs the default 15% + 2 ns), allocation \
           25% + 64 words (vs 10% + 8 words).")

let perf_report_cmd =
  Cmd.v
    (Cmd.info "report"
       ~doc:"profile the HARMLESS walk and attribute e2e latency to stages"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the deterministic profiling rig: a HARMLESS deployment \
              and a direct-OpenFlow control group, warmed up, driven with \
              identical traced ping sequences on the simulation clock.  \
              Prints a per-stage attribution table for each (stage \
              p50/p95/p99 and share of the summed p50s — which tile the \
              measured end-to-end p50 exactly) and the HARMLESS-vs-direct \
              overhead ratio.  Byte-identical across runs for fixed flags.";
         ])
    Term.(const run_perf_report $ perf_hosts_arg $ perf_pings_arg)

let perf_diff_cmd =
  Cmd.v
    (Cmd.info "diff"
       ~doc:"compare two bench snapshots with noise-tolerant thresholds")
    Term.(const run_perf_diff $ baseline_arg $ current_arg $ quick_tolerant_arg)

let perf_check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "gate on bench regressions: like diff, but exit status 3 when any \
          benchmark exceeds its threshold")
    Term.(const run_perf_check $ baseline_arg $ current_arg $ quick_tolerant_arg)

let perf_cmd =
  Cmd.group
    (Cmd.info "perf"
       ~doc:"per-stage cost attribution and bench-regression gating")
    [ perf_report_cmd; perf_diff_cmd; perf_check_cmd ]

(* ---- migrate: transactional fleet cutover ---- *)

let write_text_file path text =
  try Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text)
  with Sys_error msg ->
    Printf.eprintf "cannot write %s: %s\n" path msg;
    exit 1

let run_migrate switches hosts concurrency blast_radius seed deadline_ms
    wal_path report_path crash_sweep canary_breach postmortem_path =
  if crash_sweep then (
    match Harmless.Migration_rig.crash_sweep ~num_hosts:hosts ~seed () with
    | Error msg ->
        Printf.eprintf "crash sweep failed to run: %s\n" msg;
        exit 1
    | Ok sweep ->
        let text = Harmless.Migration_rig.render_sweep sweep in
        print_string text;
        Option.iter (fun p -> write_text_file p text) report_path;
        if not sweep.Harmless.Migration_rig.ok then exit 1)
  else if canary_breach then (
    match Harmless.Migration_rig.canary_breach ~num_hosts:hosts ~seed () with
    | Error msg ->
        Printf.eprintf "canary breach scenario failed to run: %s\n" msg;
        exit 1
    | Ok br ->
        let text = Harmless.Migration_rig.render_breach br in
        print_string text;
        Option.iter (fun p -> write_text_file p text) report_path;
        (match (postmortem_path, br.Harmless.Migration_rig.postmortem) with
        | None, _ -> ()
        | Some path, Some snap ->
            Telemetry.Postmortem.save snap ~path;
            Printf.printf "post-mortem written to %s\n" path
        | Some _, None ->
            prerr_endline "no post-mortem captured: no trigger fired");
        if not br.Harmless.Migration_rig.ok then exit 1;
        (* The scenario worked, which means the fleet aborted — and an
           aborted fleet is a non-zero exit, same as in the default mode. *)
        exit 4)
  else
    match
      Harmless.Migration_rig.build ~num_switches:switches ~num_hosts:hosts
        ~seed ()
    with
    | Error msg ->
        Printf.eprintf "migration rig failed to build: %s\n" msg;
        exit 1
    | Ok rig ->
        let fl =
          Harmless.Migration_rig.fleet ~concurrency ~blast_radius
            ?deadline:(Option.map Simnet.Sim_time.ms deadline_ms)
            rig
        in
        Harmless.Migration.Fleet.run fl;
        let wal = Harmless.Migration_rig.wal rig in
        let panel = Harmless.Dashboard.render_migration ~wal fl in
        print_string panel;
        Option.iter (fun p -> Mgmt.Txn.save wal ~path:p) wal_path;
        Option.iter (fun p -> write_text_file p panel) report_path;
        (match Harmless.Migration.Fleet.state fl with
        | Harmless.Migration.Fleet.Aborted reason ->
            Printf.eprintf "fleet aborted: %s\n" reason;
            exit 4
        | _ -> ())

let mig_switches_arg =
  Arg.(
    value & opt int 3
    & info [ "switches" ] ~docv:"N" ~doc:"Legacy switches in the fleet.")

let mig_hosts_arg =
  Arg.(
    value & opt int 2
    & info [ "hosts" ] ~docv:"N" ~doc:"Hosts per legacy switch.")

let mig_concurrency_arg =
  Arg.(
    value & opt int 1
    & info [ "concurrency" ] ~docv:"N"
        ~doc:"Maximum migrations in flight at once.")

let mig_blast_arg =
  Arg.(
    value & opt int 0
    & info [ "blast-radius" ] ~docv:"N"
        ~doc:
          "Failed switches tolerated before the whole fleet aborts \
           (0 = abort on the first failure).")

let mig_seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"N"
        ~doc:"Seed for retry jitter and scenario determinism.")

let mig_deadline_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Total management-plane backoff budget per switch, in \
           sim-milliseconds; exceeding it surfaces a distinct \
           'deadline exceeded' failure.")

let mig_wal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal" ] ~docv:"FILE"
        ~doc:"Write the migration write-ahead log here afterwards.")

let mig_report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE" ~doc:"Also write the report here.")

let mig_sweep_arg =
  Arg.(
    value & flag
    & info [ "crash-sweep" ]
        ~doc:
          "Instead of migrating, crash the manager at every WAL record \
           boundary (fresh rig each time), recover from the serialized \
           log, and report consistency/idempotence/connectivity per \
           crash point.  Exit 1 if any point fails.")

let mig_postmortem_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "postmortem" ] ~docv:"FILE"
        ~doc:
          "With $(b,--canary-breach): write the captured post-mortem \
           snapshot here (render it with $(b,harmlessctl postmortem)).")

let mig_breach_arg =
  Arg.(
    value & flag
    & info [ "canary-breach" ]
        ~doc:
          "Instead of a clean migration, degrade the first switch's \
           trunk to 95% loss mid-canary: the SLO gate must roll it \
           back and the fleet must abort.  Exit 4 when that happens \
           (aborted fleet), 1 if the scenario misbehaves.")

let migrate_cmd =
  Cmd.v
    (Cmd.info "migrate"
       ~doc:"transactional live cutover of a switch fleet, with WAL crash \
             recovery"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Migrates N legacy switches to HARMLESS sandwiches through a \
              staged, make-before-break cutover \
              (precheck/shadow/canary/commit), journaling every step to a \
              write-ahead log and gating the canary stage on a live \
              answered-probes SLO.  A breach rolls the switch back; \
              repeated failures trip a circuit breaker; exceeding \
              $(b,--blast-radius) aborts the fleet (exit status 4).  \
              $(b,--crash-sweep) and $(b,--canary-breach) run the two \
              validation scenarios instead.";
         ])
    Term.(
      const run_migrate $ mig_switches_arg $ mig_hosts_arg
      $ mig_concurrency_arg $ mig_blast_arg $ mig_seed_arg
      $ mig_deadline_arg $ mig_wal_arg $ mig_report_arg $ mig_sweep_arg
      $ mig_breach_arg $ mig_postmortem_arg)

(* ---- postmortem: render a captured snapshot as a causal timeline ---- *)

let run_postmortem path format =
  match Telemetry.Postmortem.load ~path with
  | Error msg ->
      Printf.eprintf "cannot read post-mortem %s: %s\n" path msg;
      exit 1
  | Ok snap -> (
      (match format with
      | `Text -> print_string (Telemetry.Postmortem.render snap)
      | `Json ->
          print_endline
            (Telemetry.Json.to_string_lines
               (Telemetry.Postmortem.to_json snap)));
      let tl = Telemetry.Postmortem.analyze snap in
      match tl.Telemetry.Postmortem.root_cause with
      | Some _ -> ()
      | None ->
          prerr_endline
            "post-mortem has no fault-stream event: root cause unknown";
          exit 5)

let postmortem_file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE"
        ~doc:
          "Snapshot file written by $(b,chaos --postmortem) or \
           $(b,migrate --canary-breach --postmortem).")

let postmortem_format_arg =
  let fmt_conv = Arg.enum [ ("text", `Text); ("json", `Json) ] in
  Arg.(
    value
    & opt fmt_conv `Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:"Output format: $(b,text) (causal timeline report) or $(b,json).")

let postmortem_cmd =
  Cmd.v
    (Cmd.info "postmortem"
       ~doc:"render a captured flight-recorder snapshot as a causal timeline"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Reads a post-mortem snapshot (the bounded bundle a recorded \
              run captures when a trigger fires: the event window around \
              the first fault, the correlated packet spans and the \
              monitored series slices) and prints a causal timeline — \
              root cause first, then every significant step, e.g. \
              'trunk:primary degrade@6.0ms -> probe-liveness firing@9.5ms \
              -> sw0 rollback@9.5ms -> fleet abort@9.6ms' — followed by \
              the full window.  Deterministic: the same snapshot always \
              renders the same report.  Exit status 5 when the snapshot \
              contains no fault-stream event to name as root cause.";
         ])
    Term.(const run_postmortem $ postmortem_file_arg $ postmortem_format_arg)

(* ---- walkthrough ---- *)

let run_walkthrough () =
  if Experiments_lib.E1_walkthrough.run () then () else exit 1

let walkthrough_cmd =
  Cmd.v
    (Cmd.info "walkthrough" ~doc:"replay and verify the Fig. 1 packet walk")
    Term.(const run_walkthrough $ const ())

let main =
  Cmd.group
    (Cmd.info "harmlessctl" ~version:"1.0"
       ~doc:"operate the HARMLESS hybrid-SDN reproduction")
    [
      cost_cmd; provision_cmd; config_cmd; walkthrough_cmd; pcap_cmd;
      trace_cmd; metrics_cmd; chaos_cmd; top_cmd; alerts_cmd; flows_cmd;
      fuzz_cmd;
      policy_cmd; gc_cmd; perf_cmd; migrate_cmd; postmortem_cmd;
    ]

let () = exit (Cmd.eval main)
