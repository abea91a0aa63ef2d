open Simnet
open Ethswitch
open Softswitch

type rig = {
  engine : Engine.t;
  seed : int;
  injector : Fault.injector;
  hosts : Host.t array;
  host_links : Link.t array;
  legacy : Legacy_switch.t;
  device : Mgmt.Device.t;
  fault_plan : Mgmt.Fault_plan.t;
  fo : Failover.t;
  ctrl : Sdnctl.Controller.t;
  ss2_dpid : int64;
  primary_link : Link.t;
  backup_link : Link.t;
  mutable pings_sent : int;
}

let engine t = t.engine
let injector t = t.injector
let hosts t = t.hosts
let failover t = t.fo
let controller t = t.ctrl
let device t = t.device
let channel t = Sdnctl.Controller.channel t.ctrl t.ss2_dpid
let ss2 t = Failover.ss2 t.fo
let ss1 t = Failover.ss1 t.fo
let port_map t = Failover.port_map t.fo

let default_channel_config =
  {
    Sdnctl.Channel.default_config with
    keepalive_interval = Some (Sim_time.ms 2);
    echo_timeout = Sim_time.ms 5;
    reconnect_base = Sim_time.ms 1;
    reconnect_max = Sim_time.ms 16;
  }

let link_handler link action =
  match (action : Fault.action) with
  | Fault.Down ->
      Link.set_up link false;
      Ok ()
  | Fault.Up ->
      Link.set_up link true;
      (* Also heal any lingering degradation. *)
      Link.set_impairments ~loss:0.0 ~jitter:0 link;
      Ok ()
  | Fault.Degrade { loss; jitter } -> (
      try
        Link.set_impairments ~loss ~jitter link;
        Ok ()
      with Invalid_argument msg -> Error msg)
  | Fault.Flaky _ | Fault.Crash | Fault.Restart ->
      Error "links only support down/up/degrade"

let build engine ?(num_hosts = 3) ?(seed = 42)
    ?(mode = Soft_switch.Fail_standalone) ?(channel = default_channel_config)
    ?(watchdog_period = Sim_time.ms 2) ?(retry = Mgmt.Retry.default)
    ?(failback = false) () =
  if num_hosts < 2 then Error "chaos: need at least 2 hosts"
  else
    let ( let* ) = Result.bind in
    let n = num_hosts in
    let legacy =
      Legacy_switch.create engine ~name:"chaos-legacy" ~ports:(n + 2) ()
    in
    let device =
      Mgmt.Device.create ~switch:legacy ~vendor:Mgmt.Device.Cisco_like ()
    in
    let fault_plan = Mgmt.Fault_plan.create ~seed () in
    let* fo =
      Failover.provision engine ~device ~primary_trunk:n ~backup_trunk:(n + 1)
        ~access_ports:(List.init n Fun.id) ()
    in
    (* The fault plan goes live only after provisioning: the baseline
       bring-up is clean, the chaos run is not. *)
    Mgmt.Device.set_fault_plan device (Some fault_plan);
    let hosts, host_links =
      Deployment.attach_hosts engine ~host_link:Link.gige
        [| Legacy_switch.node legacy |] ~per_node:n
    in
    let primary_link, backup_link = Failover.connect_trunks fo in
    let ctrl = Sdnctl.Controller.create engine ~channel_config:channel () in
    Sdnctl.Controller.add_app ctrl (Sdnctl.L2_learning.create ());
    let ss2 = Failover.ss2 fo in
    Soft_switch.set_connection_mode ss2 mode;
    let ss2_dpid = Sdnctl.Controller.attach_switch ctrl ss2 in
    (* Let the handshake and the first keepalives settle. *)
    Engine.run engine ~until:(Sim_time.add (Engine.now engine) (Sim_time.ms 5));
    Failover.start_watchdog ~policy:retry ~failback fo ~period:watchdog_period;
    let t =
      {
        engine;
        seed;
        injector = Fault.create engine;
        hosts;
        host_links;
        legacy;
        device;
        fault_plan;
        fo;
        ctrl;
        ss2_dpid;
        primary_link;
        backup_link;
        pings_sent = 0;
      }
    in
    let reg = Fault.register t.injector in
    reg ~target:"channel" (fun action ->
        let ch = Sdnctl.Controller.channel t.ctrl t.ss2_dpid in
        match action with
        | Fault.Down ->
            Sdnctl.Channel.set_down ch true;
            Ok ()
        | Fault.Up ->
            Sdnctl.Channel.set_down ch false;
            Ok ()
        | Fault.Degrade _ | Fault.Flaky _ | Fault.Crash | Fault.Restart ->
            Error "channel only supports down/up");
    reg ~target:"mgmt" (fun action ->
        match action with
        | Fault.Flaky k ->
            Mgmt.Fault_plan.fail_next fault_plan k;
            Ok ()
        | Fault.Down ->
            Mgmt.Fault_plan.set_fail_probability fault_plan 1.0;
            Ok ()
        | Fault.Up ->
            Mgmt.Fault_plan.set_fail_probability fault_plan 0.0;
            Ok ()
        | Fault.Degrade _ | Fault.Crash | Fault.Restart ->
            Error "mgmt supports flaky/down/up");
    reg ~target:"trunk:primary" (link_handler primary_link);
    reg ~target:"trunk:backup" (link_handler backup_link);
    Array.iteri
      (fun i link ->
        reg ~target:(Printf.sprintf "host:%d" i) (link_handler link))
      host_links;
    let switch_handler sw ~restarted action =
      match (action : Fault.action) with
      | Fault.Crash ->
          Soft_switch.crash sw;
          Ok ()
      | Fault.Restart ->
          Soft_switch.restart sw;
          restarted ();
          Ok ()
      | Fault.Down | Fault.Up | Fault.Degrade _ | Fault.Flaky _ ->
          Error "switches only support crash/restart"
    in
    reg ~target:"switch:ss1"
      (switch_handler (Failover.ss1 fo) ~restarted:(fun () ->
           (* SS_1 is statically programmed by the manager, not the
              controller, so a restart re-pushes the translator rules. *)
           Failover.reinstall_translator fo));
    reg ~target:"switch:ss2"
      (switch_handler ss2 ~restarted:(fun () ->
           (* The controller's channel keepalive notices the outage and
              resyncs the flows on reconnect — nothing to do here. *)
           ()));
    Ok t

type report = {
  duration : Sim_time.span;
  pings_sent : int;
  pings_answered : int;
  probe_pairs : int;
  probe_answered : int;
  faults : Fault.applied list;
  reconnects : int;
  resyncs : int;
  mgmt_retries : int;
  activation_retries : int;
  failovers : int;
  failbacks : int;
  standalone_forwards : int;
  channel_queue_drops : int;
  channel_dropped : int;
  mgmt_faults_injected : int;
  watchdog : Failover.watchdog_status;
  final_active : [ `Primary | `Backup ];
  final_connected : bool;
  recovered : bool;
  slo_evaluations : int;
  slo_breaches : (string * (int * int option) list) list;
  stage_slis : (string * Telemetry.Profile.stats) list;
  postmortem : Telemetry.Postmortem.snapshot option;
}

let retry_ops =
  [
    "manager.load_candidate";
    "manager.commit";
    "manager.verify";
    "manager.rollback";
    "failover.activate_backup";
    "failover.activate_primary";
  ]

let mgmt_retries_total () =
  List.fold_left
    (fun acc op ->
      acc
      + Telemetry.Registry.Counter.value
          (Telemetry.Registry.Counter.v ~labels:[ ("op", op) ] "retries_total"))
    0 retry_ops

let answered hosts = Array.fold_left (fun acc h -> acc + Host.echo_replies h) 0 hosts

(* Deterministic probe traffic: cycle through every ordered host pair so
   fresh (never-communicated) pairs keep appearing — those are the ones
   that need the controller, or its fail-standalone substitute. *)
let ping_ordered_pair hosts k ~seq =
  let n = Array.length hosts in
  let pairs = n * (n - 1) in
  let idx = k mod pairs in
  let src = idx / (n - 1) in
  let rest = idx mod (n - 1) in
  let dst = if rest >= src then rest + 1 else rest in
  Host.ping hosts.(src) ~dst_mac:(Host.mac hosts.(dst)) ~dst_ip:(Host.ip hosts.(dst)) ~seq

let ping_pair (t : rig) k =
  t.pings_sent <- t.pings_sent + 1;
  ping_ordered_pair t.hosts k ~seq:t.pings_sent

let run_recorded t ~recorder ~script ~duration ~ping_interval =
  let ( let* ) = Result.bind in
    let* _events = Fault.run_script t.injector script in
    (* SLO rules evaluated on the engine clock during the storm and the
       recovery grace; their firing windows land in the report. *)
    let alerts = Telemetry.Alert.create () in
    let ch = channel t in
    Telemetry.Alert.add_rule alerts ~name:"control-channel-up"
      ~help:"the OpenFlow channel must stay connected"
      (Telemetry.Alert.Sampled
         (fun _now ->
           Some
             (match Sdnctl.Channel.state ch with
             | Sdnctl.Channel.Connected -> 1.0
             | Sdnctl.Channel.Disconnected -> 0.0)))
      (Telemetry.Alert.Below 0.5);
    let answered_series =
      Telemetry.Timeseries.create ~name:"pings_answered_total" ()
    in
    Telemetry.Alert.add_rule alerts ~name:"probe-liveness"
      ~help:"probe answers must keep arriving"
      (Telemetry.Alert.Series answered_series)
      (Telemetry.Alert.Rate_below
         { per_second = 1.0; window = Sim_time.ms 3 });
    let answered_before = answered t.hosts in
    let stop = Sim_time.add (Engine.now t.engine) duration in
    (* Evaluate only during the storm: after it, probes stop by design,
       so a liveness rule would "breach" on the silence. *)
    let slo_tick () =
      let now = Engine.now t.engine in
      if Sim_time.( <= ) now stop then begin
        let now_ns = Sim_time.to_ns now in
        Telemetry.Timeseries.record answered_series ~ts_ns:now_ns
          (float_of_int (answered t.hosts));
        Telemetry.Alert.eval alerts ~now_ns
      end;
      Sim_time.( < ) now stop
    in
    Engine.schedule_every t.engine (Sim_time.us 500) slo_tick;
    let rec traffic k () =
      if Sim_time.( < ) (Engine.now t.engine) stop then begin
        ping_pair t k;
        Engine.schedule_after t.engine ping_interval (traffic (k + 1))
      end
    in
    traffic 0 ();
    Engine.run t.engine ~until:stop;
    let pings_sent = t.pings_sent in
    let pings_answered = answered t.hosts - answered_before in
    (* Recovery probe: after the storm, one ping per ordered pair, then a
       grace period.  All answered = the deployment healed. *)
    let probe_before = answered t.hosts in
    let n = Array.length t.hosts in
    let probe_pairs = n * (n - 1) in
    (* Only the recovery probe's hops feed the report's per-stage
       latency SLIs — how long each forwarding stage took after healing. *)
    let probe_start = Telemetry.Trace.mark recorder in
    for k = 0 to probe_pairs - 1 do
      ping_pair t k
    done;
    Engine.run t.engine
      ~until:(Sim_time.add (Engine.now t.engine) (Sim_time.ms 20));
    let probe_traces = Telemetry.Trace.traces ~since:probe_start recorder in
    let probe_answered = answered t.hosts - probe_before in
    let stage_slis =
      let view =
        Trace_view.make
          ~legacy_trunk:
            [
              ( Legacy_switch.name t.legacy,
                match Failover.active t.fo with
                | `Primary -> n
                | `Backup -> n + 1 );
            ]
          ~ss1:[ Soft_switch.name (ss1 t) ]
          ~ss2:[ Soft_switch.name (ss2 t) ]
          ()
      in
      let profile = Telemetry.Profile.create () in
      Telemetry.Profile.record_traces
        ~stage_of:(Trace_view.semantic view)
        profile probe_traces;
      List.filter_map
        (fun stage ->
          Option.map
            (fun stats -> (stage, stats))
            (Telemetry.Profile.stage_stats profile ~stage))
        (Telemetry.Profile.stages profile)
    in
    (* Capture-at-finalize: if anything trigger-worthy landed in the
       recorder (a fault, an alert going firing, a rollback/abort), bundle
       the event window with the recovery-probe spans and the liveness
       series into a deterministic snapshot. *)
    let postmortem =
      Telemetry.Postmortem.capture
        ~spans:(Telemetry.Span.of_traces probe_traces)
        ~series:[ answered_series ] ~scenario:"chaos" ~seed:t.seed
        ~captured_ns:(Sim_time.to_ns (Engine.now t.engine))
        recorder
    in
    Ok
      {
        duration;
        pings_sent;
        pings_answered;
        probe_pairs;
        probe_answered;
        faults = Fault.applied t.injector;
        reconnects = Sdnctl.Channel.reconnects ch;
        resyncs = Sdnctl.Controller.resyncs t.ctrl;
        mgmt_retries = mgmt_retries_total ();
        activation_retries = Failover.activation_retries t.fo;
        failovers = Failover.failovers t.fo;
        failbacks = Failover.failbacks t.fo;
        standalone_forwards = Soft_switch.standalone_forwards (ss2 t);
        channel_queue_drops = Sdnctl.Channel.queue_drops ch;
        channel_dropped =
          Sdnctl.Channel.dropped_to_switch ch
          + Sdnctl.Channel.dropped_to_controller ch;
        mgmt_faults_injected = Mgmt.Fault_plan.injected t.fault_plan;
        watchdog = Failover.watchdog_status t.fo;
        final_active = Failover.active t.fo;
        final_connected = Sdnctl.Channel.state ch = Sdnctl.Channel.Connected;
        recovered = probe_answered = probe_pairs;
        slo_evaluations = Telemetry.Alert.evaluations alerts;
        slo_breaches =
          List.map
            (fun rule -> (rule, Telemetry.Alert.breaches alerts rule))
            (Telemetry.Alert.rules alerts);
        stage_slis;
        postmortem;
      }

(* The whole run happens under a freshly installed flight recorder (the
   previous one, if any, is restored afterwards): every fault injection,
   channel drop, retry, failover and alert transition lands in the event
   log, and the end of the run captures a post-mortem snapshot when
   anything trigger-worthy happened. *)
let run t ~script ~duration ?(ping_interval = Sim_time.ms 1) () =
  if duration <= 0 then Error "chaos: duration must be positive"
  else
    Telemetry.Trace.with_recorder
      ~clock:(fun () -> Sim_time.to_ns (Engine.now t.engine))
      (fun recorder -> run_recorded t ~recorder ~script ~duration ~ping_interval)

let pp_report ppf r =
  let open Format in
  fprintf ppf "@[<v>chaos run: %a of scripted faults@," Sim_time.pp_span
    r.duration;
  fprintf ppf "  faults applied:@,";
  List.iter
    (fun (a : Fault.applied) ->
      fprintf ppf "    %a  %a  %s@," Sim_time.pp a.Fault.at Fault.pp_event
        a.Fault.event
        (match a.Fault.outcome with
        | Ok () -> "ok"
        | Error e -> "FAILED: " ^ e))
    r.faults;
  fprintf ppf "  traffic: %d/%d pings answered during the storm@,"
    r.pings_answered r.pings_sent;
  fprintf ppf "  recovery probe: %d/%d pairs reachable -> %s@," r.probe_answered
    r.probe_pairs
    (if r.recovered then "RECOVERED" else "NOT RECOVERED");
  fprintf ppf "  control channel: %d reconnects, %d resyncs, %d msgs lost, %d queue drops (%s)@,"
    r.reconnects r.resyncs r.channel_dropped r.channel_queue_drops
    (if r.final_connected then "connected" else "disconnected");
  fprintf ppf "  fail-standalone forwards: %d@," r.standalone_forwards;
  fprintf ppf "  management: %d faults injected, %d op retries@,"
    r.mgmt_faults_injected r.mgmt_retries;
  fprintf ppf "  failover: %d failovers, %d failbacks, %d activation retries, on %s trunk@,"
    r.failovers r.failbacks r.activation_retries
    (match r.final_active with `Primary -> "primary" | `Backup -> "backup");
  (match r.watchdog with
  | Failover.Gave_up msg -> fprintf ppf "  watchdog GAVE UP: %s@," msg
  | Failover.Idle | Failover.Watching | Failover.Activating -> ());
  let total_breaches =
    List.fold_left (fun acc (_, ws) -> acc + List.length ws) 0 r.slo_breaches
  in
  if r.stage_slis <> [] then begin
    fprintf ppf "  recovery-probe stage SLIs (p50/p95):@,";
    List.iter
      (fun (stage, (s : Telemetry.Profile.stats)) ->
        fprintf ppf "    %-28s %a / %a  (%d samples)@," stage
          Telemetry.Trace.pp_time s.Telemetry.Profile.p50
          Telemetry.Trace.pp_time s.Telemetry.Profile.p95
          s.Telemetry.Profile.count)
      r.stage_slis
  end;
  fprintf ppf "  SLO: %d breach window(s) across %d evaluations@,"
    total_breaches r.slo_evaluations;
  List.iter
    (fun (rule, windows) ->
      List.iter
        (fun (from_ns, until_ns) ->
          match until_ns with
          | Some u ->
              fprintf ppf "    %s breached %a -> %a@," rule Sim_time.pp
                (Sim_time.of_ns from_ns) Sim_time.pp (Sim_time.of_ns u)
          | None ->
              fprintf ppf "    %s breached %a -> still firing@," rule
                Sim_time.pp (Sim_time.of_ns from_ns))
        windows)
    r.slo_breaches;
  (match r.postmortem with
  | None -> fprintf ppf "  post-mortem: no trigger, none captured@,"
  | Some s ->
      let tl = Telemetry.Postmortem.analyze s in
      fprintf ppf
        "  post-mortem: %d event(s) across %d trigger(s), root cause %s@,"
        (List.length s.Telemetry.Postmortem.events)
        (List.length s.Telemetry.Postmortem.triggers)
        (match tl.Telemetry.Postmortem.root_cause with
        | Some e ->
            e.Telemetry.Trace.stream ^ "." ^ e.Telemetry.Trace.name
        | None -> "unknown"));
  fprintf ppf "@]"
