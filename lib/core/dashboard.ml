open Simnet

type t = {
  engine : Engine.t;
  deployment : Deployment.t;
  ctrl : Sdnctl.Controller.t;
  dpid : int64;
  poller : Sdnctl.Stats_poller.t;
  alerts : Telemetry.Alert.t;
  gcstats : Telemetry.Gcstats.t;
  collector : Sdnctl.Flow_collector.t;
  view : Trace_view.t;
  profile : Telemetry.Profile.t;
  mutable pings : int;
}

let engine t = t.engine
let poller t = t.poller
let alerts t = t.alerts
let flow_collector t = t.collector
let now_ns t = Sim_time.to_ns (Engine.now t.engine)

let aggregate_rx_rate poller now_ns ~window =
  List.fold_left
    (fun acc (s : Openflow.Of_message.port_stat) ->
      match
        Sdnctl.Stats_poller.port_rate poller ~port:s.Openflow.Of_message.port_no
          ~now_ns ~window
      with
      | Some (rx, _tx) -> acc +. Float.max rx 0.
      | None -> acc)
    0.
    (Sdnctl.Stats_poller.latest_ports poller)

let demo ?(num_hosts = 4) ?(poll_period = Sim_time.ms 10) () =
  let ( let* ) = Result.bind in
  let engine = Engine.create () in
  Engine.enable_telemetry ~sample_every:16 engine;
  let* deployment = Deployment.build_harmless engine ~num_hosts () in
  let ctrl = Sdnctl.Controller.create engine () in
  Sdnctl.Controller.add_app ctrl (Sdnctl.L2_learning.create ());
  let dpid =
    Sdnctl.Controller.attach_switch ctrl (Deployment.controller_switch deployment)
  in
  Engine.run engine ~until:(Sim_time.add (Engine.now engine) (Sim_time.ms 5));
  let poller = Sdnctl.Stats_poller.create ~period:poll_period ctrl dpid in
  Sdnctl.Stats_poller.start poller;
  let alerts = Telemetry.Alert.create () in
  let ch = Sdnctl.Controller.channel ctrl dpid in
  Telemetry.Alert.add_rule alerts ~name:"control-channel-up"
    ~help:"the OpenFlow channel must stay connected"
    (Telemetry.Alert.Sampled
       (fun _now ->
         Some
           (match Sdnctl.Channel.state ch with
           | Sdnctl.Channel.Connected -> 1.0
           | Sdnctl.Channel.Disconnected -> 0.0)))
    (Telemetry.Alert.Below 0.5);
  Telemetry.Alert.add_rule alerts ~name:"stats-freshness"
    ~help:"the poller must keep hearing echo replies"
    (Telemetry.Alert.Series (Sdnctl.Stats_poller.rtt_series poller))
    (Telemetry.Alert.Absent { window = Sim_time.ms 50 });
  Telemetry.Alert.add_rule alerts ~name:"dataplane-active"
    ~help:"firing = polled port counters show traffic"
    (Telemetry.Alert.Sampled
       (fun now_ns ->
         Some (aggregate_rx_rate poller now_ns ~window:(Sim_time.ms 30))))
    (Telemetry.Alert.Above 1.0);
  let gcstats = Telemetry.Gcstats.create () in
  (* The demo threshold is astronomically high on purpose: the rule's
     job here is to show up in the alert roster with a live rate, not
     to fire — keeping every golden frame deterministic. *)
  Telemetry.Gcstats.add_alloc_rate_rule gcstats alerts
    ~words_per_second:1e12 ~window:(Sim_time.ms 30) ();
  (* Sampled flow telemetry on the OpenFlow switch: a low rate so the
     probe pings actually get sampled, and — like the GC rule —
     unreachable alert thresholds, present for the roster, never
     firing. *)
  let collector =
    Sdnctl.Flow_collector.create
      ~config:{ Softswitch.Flowrec.default_config with rate = 8; topk = 8 }
      engine
  in
  Sdnctl.Flow_collector.add_switch collector
    (Deployment.controller_switch deployment);
  Sdnctl.Flow_collector.start collector ~every:poll_period;
  Sdnctl.Flow_collector.add_alert_rules ~elephant_bytes:1e12 ~max_hosts:1e12
    collector alerts;
  Ok
    {
      engine;
      deployment;
      ctrl;
      dpid;
      poller;
      alerts;
      gcstats;
      collector;
      view = Trace_view.of_deployment deployment;
      profile = Telemetry.Profile.create ();
      pings = 0;
    }

let ping_pair t k =
  t.pings <- t.pings + 1;
  Chaos.ping_ordered_pair t.deployment.Deployment.hosts k ~seq:t.pings

let advance t span =
  if span < 0 then invalid_arg "Dashboard.advance: negative span";
  let stop = Sim_time.add (Engine.now t.engine) span in
  let rec traffic () =
    if Sim_time.( < ) (Engine.now t.engine) stop then begin
      ping_pair t t.pings;
      Engine.schedule_after t.engine (Sim_time.ms 1) traffic
    end
  in
  traffic ();
  Engine.schedule_every t.engine (Sim_time.ms 2) (fun () ->
      let now = Engine.now t.engine in
      if Sim_time.( <= ) now stop then begin
        Telemetry.Gcstats.sample t.gcstats ~ts_ns:(Sim_time.to_ns now);
        Telemetry.Alert.eval t.alerts ~now_ns:(Sim_time.to_ns now)
      end;
      Sim_time.( < ) now stop);
  (* The run happens under a recorder so the probe traffic also feeds
     the per-stage latency profile behind [render_stages]. *)
  let traces =
    Telemetry.Trace.with_recorder (fun r ->
        Engine.run t.engine ~until:stop;
        Telemetry.Trace.traces r)
  in
  Telemetry.Profile.record_traces
    ~stage_of:(Trace_view.semantic t.view)
    t.profile traces

(* ---- rendering ---- *)

let rate_str r =
  if r >= 1e9 then Printf.sprintf "%7.1f GB/s" (r /. 1e9)
  else if r >= 1e6 then Printf.sprintf "%7.1f MB/s" (r /. 1e6)
  else if r >= 1e3 then Printf.sprintf "%7.1f kB/s" (r /. 1e3)
  else Printf.sprintf "%7.1f  B/s" r

let bar ~width frac =
  let frac = Float.min 1.0 (Float.max 0.0 frac) in
  let n = int_of_float ((frac *. float_of_int width) +. 0.5) in
  String.make n '#' ^ String.make (width - n) '.'

let render_top ?(top_n = 5) ?(window = Sim_time.ms 30) t =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let now = now_ns t in
  let ch = Sdnctl.Controller.channel t.ctrl t.dpid in
  add "harmless top — t=%s  dpid=0x%Lx  channel=%s\n"
    (Format.asprintf "%a" Sim_time.pp (Engine.now t.engine))
    t.dpid
    (match Sdnctl.Channel.state ch with
    | Sdnctl.Channel.Connected -> "connected"
    | Sdnctl.Channel.Disconnected -> "DISCONNECTED");
  let p = t.poller in
  add "poller: %d rounds, %d flow / %d port / %d echo replies, backoff x%d"
    (Sdnctl.Stats_poller.rounds_issued p)
    (Sdnctl.Stats_poller.flow_replies p)
    (Sdnctl.Stats_poller.port_replies p)
    (Sdnctl.Stats_poller.rtt_replies p)
    (Sdnctl.Stats_poller.consecutive_failures p);
  (match Telemetry.Timeseries.last (Sdnctl.Stats_poller.rtt_series p) with
  | Some (_, rtt) ->
      add ", rtt %s\n" (Format.asprintf "%a" Sim_time.pp_span (int_of_float rtt))
  | None -> add ", rtt -\n");
  let ports =
    List.sort
      (fun (a : Openflow.Of_message.port_stat) b ->
        compare a.Openflow.Of_message.port_no b.Openflow.Of_message.port_no)
      (Sdnctl.Stats_poller.latest_ports p)
  in
  let window_s = Format.asprintf "%a" Sim_time.pp_span window in
  if ports = [] then add "\nports: no port-stats reply yet\n"
  else begin
    add "\nports (rates over %s):\n" window_s;
    let rates =
      List.map
        (fun (s : Openflow.Of_message.port_stat) ->
          let port = s.Openflow.Of_message.port_no in
          match Sdnctl.Stats_poller.port_rate p ~port ~now_ns:now ~window with
          | Some (rx, tx) -> (port, Float.max rx 0., Float.max tx 0.)
          | None -> (port, 0., 0.))
        ports
    in
    let peak =
      List.fold_left (fun m (_, rx, tx) -> Float.max m (Float.max rx tx)) 1. rates
    in
    List.iter
      (fun (port, rx, tx) ->
        add "  port %2d  rx %s |%s|  tx %s |%s|\n" port (rate_str rx)
          (bar ~width:20 (rx /. peak))
          (rate_str tx)
          (bar ~width:20 (tx /. peak)))
      rates
  end;
  let flows = Sdnctl.Stats_poller.top_flows p ~n:top_n ~now_ns:now ~window in
  if flows = [] then add "\nflows: no flow-stats reply yet\n"
  else begin
    add "\ntop %d flows by byte rate (over %s):\n" (List.length flows) window_s;
    List.iteri
      (fun i (key, rate) -> add "  %d. %s  %s\n" (i + 1) (rate_str rate) key)
      flows
  end;
  add "\n%s" (Telemetry.Gcstats.panel t.gcstats ~now_ns:now ~window);
  (match
     (Engine.queue_depth_series t.engine, Engine.scheduling_lag_series t.engine)
   with
  | Some depth, Some lag ->
      let last series =
        match Telemetry.Timeseries.last series with
        | Some (_, v) -> Printf.sprintf "%.0f" v
        | None -> "-"
      in
      add "engine: %d events, queue depth %s, sched lag %sns\n"
        (Engine.events_executed t.engine)
        (last depth) (last lag)
  | _ -> ());
  let firing = Telemetry.Alert.firing t.alerts in
  add "\nalerts: %d rule(s), firing: %s\n"
    (List.length (Telemetry.Alert.rules t.alerts))
    (if firing = [] then "none" else String.concat ", " firing);
  add "%s" (Format.asprintf "%a" Telemetry.Alert.pp t.alerts);
  Buffer.contents buf

let render_stages t =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "per-stage latency SLIs — t=%s, %d traced packet(s)\n"
    (Format.asprintf "%a" Sim_time.pp (Engine.now t.engine))
    (Telemetry.Profile.traces_recorded t.profile);
  if Telemetry.Profile.traces_recorded t.profile = 0 then
    add "no traced traffic yet — advance the dashboard first\n"
  else add "%s" (Telemetry.Profile.attribution_table t.profile);
  Buffer.contents buf

let render_flows ?(top_n = 10) t =
  Printf.sprintf "harmless flows — t=%s\n%s"
    (Format.asprintf "%a" Sim_time.pp (Engine.now t.engine))
    (Sdnctl.Flow_collector.render ~k:top_n t.collector)

let render_alerts t =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "alert rules after %d evaluation(s) (t=%s):\n"
    (Telemetry.Alert.evaluations t.alerts)
    (Format.asprintf "%a" Sim_time.pp (Engine.now t.engine));
  add "%s" (Format.asprintf "%a" Telemetry.Alert.pp t.alerts);
  let log = Telemetry.Alert.log t.alerts in
  if log = [] then add "no transitions\n"
  else begin
    add "transitions:\n";
    List.iter
      (fun tr ->
        add "  %s\n" (Format.asprintf "%a" Telemetry.Alert.pp_transition tr))
      log
  end;
  Buffer.contents buf

let render_migration ?wal fleet =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "%s" (Migration.Fleet.render fleet);
  (match wal with
  | None -> ()
  | Some wal ->
      add "WAL: %d record(s), %d transaction(s)\n" (Mgmt.Txn.length wal)
        (List.length (Mgmt.Txn.txns wal));
      List.iter
        (fun txn ->
          add "  txn %-12s %s\n" txn
            (Format.asprintf "%a" Mgmt.Txn.pp_resolution
               (Mgmt.Txn.resolve wal ~txn)))
        (Mgmt.Txn.txns wal));
  Buffer.contents buf
