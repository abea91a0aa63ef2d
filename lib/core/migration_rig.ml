open Simnet
open Ethswitch
open Softswitch

let ( let* ) = Result.bind

type sw = {
  name : string;
  legacy : Legacy_switch.t;
  dev : Mgmt.Device.t;
  hosts : Host.t array;
  before : Mgmt.Device_config.t; (* pre-migration running config *)
  answered_series : Telemetry.Timeseries.t;
  alerts : Telemetry.Alert.t;
  mutable trunk_link : Link.t option;
  mutable poller : Sdnctl.Stats_poller.t option;
  mutable pings : int;
}

type t = {
  engine : Engine.t;
  ctrl : Sdnctl.Controller.t;
  inj : Fault.injector;
  wal_ : Mgmt.Txn.t;
  switches : sw array;
  seed : int;
  num_hosts : int;
}

let engine t = t.engine
let wal t = t.wal_
let controller t = t.ctrl
let device t i = t.switches.(i).dev

let build ?(num_switches = 3) ?(num_hosts = 2) ~seed () =
  if num_switches < 1 then Error "migration rig: need at least 1 switch"
  else if num_hosts < 2 then Error "migration rig: need at least 2 hosts"
  else begin
    let engine = Engine.create () in
    let ctrl = Sdnctl.Controller.create engine ~channel_config:Chaos.default_channel_config () in
    Sdnctl.Controller.add_app ctrl (Sdnctl.L2_learning.create ());
    let vendors =
      [| Mgmt.Device.Cisco_like; Mgmt.Device.Arista_like; Mgmt.Device.Juniper_like |]
    in
    let switches =
      Array.init num_switches (fun k ->
          let name = Printf.sprintf "sw%d" k in
          let legacy =
            Legacy_switch.create engine ~name ~ports:(num_hosts + 1) ()
          in
          let dev =
            Mgmt.Device.create ~switch:legacy
              ~vendor:vendors.(k mod Array.length vendors)
              ()
          in
          let hosts =
            Array.init num_hosts (fun i ->
                Host.create engine
                  ~name:(Printf.sprintf "%s-h%d" name i)
                  ~mac:(Deployment.host_mac ((k * num_hosts) + i))
                  ~ip:(Deployment.host_ip ((k * num_hosts) + i))
                  ())
          in
          Array.iteri
            (fun i h ->
              ignore (Link.connect (Host.node h, 0) (Legacy_switch.node legacy, i)))
            hosts;
          let answered_series =
            Telemetry.Timeseries.create
              ~name:(name ^ "_probe_answered_total") ()
          in
          let alerts = Telemetry.Alert.create () in
          Telemetry.Alert.add_rule alerts ~name:"probe-liveness"
            ~help:"canary probe answers must keep arriving"
            (Telemetry.Alert.Series answered_series)
            (Telemetry.Alert.Rate_below
               { per_second = 1.0; window = Sim_time.ms 3 });
          {
            name;
            legacy;
            dev;
            hosts;
            before = Mgmt.Device.running_config dev;
            answered_series;
            alerts;
            trunk_link = None;
            poller = None;
            pings = 0;
          })
    in
    Ok
      {
        engine;
        ctrl;
        inj = Fault.create engine;
        wal_ = Mgmt.Txn.create ();
        switches;
        seed;
        num_hosts;
      }
  end

(* ------------------------------------------------------------------ *)
(* Probe traffic                                                       *)
(* ------------------------------------------------------------------ *)

(* Cycle the ordered host pairs of one switch, like the chaos rig. *)
let ping_next sw =
  let k = sw.pings in
  sw.pings <- k + 1;
  Chaos.ping_ordered_pair sw.hosts k ~seq:sw.pings

let probe_all ?(grace = Sim_time.ms 25) t =
  (* Drain in-flight traffic first — a probe the canary gate sent just
     before rollback may still be on the wire, and its late reply would
     otherwise skew the answered count. *)
  Engine.run t.engine
    ~until:(Sim_time.add (Engine.now t.engine) (Sim_time.ms 2));
  let before =
    Array.map (fun sw -> Chaos.answered sw.hosts) t.switches
  in
  let sent = ref 0 in
  Array.iter
    (fun sw ->
      let n = Array.length sw.hosts in
      for _ = 1 to n * (n - 1) do
        ping_next sw;
        incr sent
      done)
    t.switches;
  Engine.run t.engine ~until:(Sim_time.add (Engine.now t.engine) grace);
  let got = ref 0 in
  Array.iteri
    (fun i sw -> got := !got + (Chaos.answered sw.hosts - before.(i)))
    t.switches;
  !got = !sent

(* ------------------------------------------------------------------ *)
(* Hooks and gates                                                     *)
(* ------------------------------------------------------------------ *)

(* Make-before-break "make": the whole sandwich comes up before the
   device config flips — SS_2 in fail-standalone so the dataplane works
   while the controller handshake is still in flight (the canary warmup
   absorbs that). *)
let shadow_hook t sw map =
  let n = Array.length sw.hosts in
  let server =
    Server.build t.engine ~nics:1 ~ss2:(sw.name ^ "-ss2") [ (sw.name, map) ]
  in
  let ss1 = server.Server.ss1s.(0) and ss2 = server.Server.ss2 in
  let trunk =
    Link.connect ~a_to_b:Link.ten_gige ~b_to_a:Link.ten_gige
      (Legacy_switch.node sw.legacy, n)
      (Soft_switch.node ss1, Translator.trunk_port)
  in
  let target = "trunk:" ^ sw.name in
  if not (List.mem target (Fault.targets t.inj)) then
    Fault.register t.inj ~target (Chaos.link_handler trunk);
  Soft_switch.set_connection_mode ss2 Soft_switch.Fail_standalone;
  let dpid = Sdnctl.Controller.attach_switch t.ctrl ss2 in
  let poller =
    Sdnctl.Stats_poller.create ~period:(Sim_time.ms 1) t.ctrl dpid
  in
  Sdnctl.Stats_poller.start poller;
  sw.trunk_link <- Some trunk;
  sw.poller <- Some poller;
  Ok ()

let rollback_hook _t sw () =
  (match sw.poller with
  | Some p ->
      Sdnctl.Stats_poller.stop p;
      sw.poller <- None
  | None -> ());
  (match sw.trunk_link with
  | Some l ->
      Link.set_up l false;
      sw.trunk_link <- None
  | None -> ())

let hooks t sw =
  {
    Migration.on_shadow = (fun map -> shadow_hook t sw map);
    on_commit = ignore;
    on_rollback = (fun () -> rollback_hook t sw ());
  }

(* The canary gate: record the switch's cumulative answered-probe count
   every tick, and breach when its growth rate collapses — the liveness
   SLO a cutover must not hurt. *)
let gate ?(wrap_probe = fun p -> p) t sw =
  let probe () =
    let now_ns = Sim_time.to_ns (Engine.now t.engine) in
    Telemetry.Timeseries.record sw.answered_series ~ts_ns:now_ns
      (float_of_int (Chaos.answered sw.hosts));
    ping_next sw
  in
  Migration.slo_gate ~alerts:sw.alerts ~probe:(wrap_probe probe) ()

let plan sw ~num_hosts =
  {
    Migration.device = sw.dev;
    trunk_port = num_hosts;
    access_ports = List.init num_hosts Fun.id;
    base_vid = None;
  }

let member t i =
  let sw = t.switches.(i) in
  {
    Migration.Fleet.name = sw.name;
    plan = plan sw ~num_hosts:t.num_hosts;
    gate = Some (gate t sw);
    hooks = Some (hooks t sw);
  }

let fleet ?concurrency ?blast_radius ?breaker ?deadline t =
  Migration.Fleet.create t.engine ~wal:t.wal_ ?concurrency ?blast_radius
    ?breaker ?deadline ~seed:t.seed
    (List.init (Array.length t.switches) (member t))

(* ------------------------------------------------------------------ *)
(* Crash sweep                                                         *)
(* ------------------------------------------------------------------ *)

type point = {
  crash_after : int;
  crashed_at : string;
  resolution : string;
  recovered : string;
  consistent : bool;
  idempotent : bool;
  probe_ok : bool;
  wal_records : int;
}

type sweep = {
  seed : int;
  num_hosts : int;
  baseline_records : int;
  baseline_status : string;
  baseline_probe_ok : bool;
  points : point list;
  ok : bool;
}

let status_string st = Format.asprintf "%a" Migration.pp_status st

(* One fresh single-switch rig, one migration, optionally with a crash
   armed at the [crash_after]-th WAL append. *)
let sweep_run ~seed ~num_hosts ~crash_after =
  let* t = build ~num_switches:1 ~num_hosts ~seed () in
  let sw = t.switches.(0) in
  let m =
    Migration.create t.engine ~wal:t.wal_ ~txn_id:sw.name
      ~rng:(Rng.create seed) ~gate:(gate t sw) ~hooks:(hooks t sw)
      (plan sw ~num_hosts)
  in
  (match crash_after with
  | Some k -> Mgmt.Txn.arm_crash t.wal_ ~after:k
  | None -> ());
  let status = Migration.run m in
  Ok (t, sw, status)

let candidate_for sw ~num_hosts =
  let map = Port_map.make ~access_ports:(List.init num_hosts Fun.id) () in
  Manager.candidate_config ~device:sw.dev ~trunk_port:num_hosts ~map ()

(* The config-consistency invariant: after recovery the running config
   is exactly the pre-migration config (rolled back) or exactly the
   candidate (committed) — never a mix, never anything else. *)
let consistent_with sw ~num_hosts (st : Migration.status) =
  let running = Mgmt.Device.running_config sw.dev in
  match st with
  | Migration.Committed ->
      Mgmt.Device_config.equal_modes running (candidate_for sw ~num_hosts)
  | Migration.Rolled_back _ -> Mgmt.Device_config.equal_modes running sw.before
  | _ -> false

let crash_sweep ?(num_hosts = 2) ~seed () =
  (* Learn the WAL shape from an uncrashed run. *)
  let* t0, _sw0, baseline_status = sweep_run ~seed ~num_hosts ~crash_after:None in
  let baseline_records = Mgmt.Txn.length t0.wal_ in
  let baseline_probe_ok = probe_all t0 in
  let* () =
    match baseline_status with
    | Migration.Committed -> Ok ()
    | st ->
        Error
          (Printf.sprintf "crash sweep baseline did not commit: %s"
             (status_string st))
  in
  let run_point k =
    let* t, sw, status = sweep_run ~seed ~num_hosts ~crash_after:(Some k) in
    let crashed_at =
      match status with
      | Migration.Crashed where -> where
      | st -> Printf.sprintf "no crash fired (%s)" (status_string st)
    in
    (* Recover from what a fresh process would read off disk: the
       serialized log, round-tripped. *)
    let* parsed =
      Result.map_error
        (fun e -> "WAL round-trip failed: " ^ e)
        (Mgmt.Txn.of_string (Mgmt.Txn.to_string t.wal_))
    in
    let resolution =
      Format.asprintf "%a" Mgmt.Txn.pp_resolution
        (Mgmt.Txn.resolve parsed ~txn:sw.name)
    in
    let* r1 =
      Migration.recover ~wal:parsed ~txn_id:sw.name ~device:sw.dev
        ~hooks:(hooks t sw) ()
    in
    let consistent = consistent_with sw ~num_hosts r1.Migration.status in
    let len1 = Mgmt.Txn.length parsed in
    let* r2 =
      Migration.recover ~wal:parsed ~txn_id:sw.name ~device:sw.dev
        ~hooks:(hooks t sw) ()
    in
    let idempotent =
      Mgmt.Txn.length parsed = len1
      && consistent_with sw ~num_hosts r2.Migration.status
      && (match (r1.Migration.status, r2.Migration.status) with
         | Migration.Committed, Migration.Committed -> true
         | Migration.Rolled_back _, Migration.Rolled_back _ -> true
         | a, b -> a = b)
    in
    let probe_ok = probe_all t in
    Ok
      {
        crash_after = k;
        crashed_at;
        resolution;
        recovered = status_string r1.Migration.status;
        consistent;
        idempotent;
        probe_ok;
        wal_records = len1;
      }
  in
  let* points =
    List.fold_left
      (fun acc k ->
        let* acc = acc in
        let* p = run_point k in
        Ok (p :: acc))
      (Ok [])
      (List.init baseline_records (fun i -> i + 1))
    |> Result.map List.rev
  in
  let ok =
    baseline_probe_ok
    && List.for_all
         (fun p -> p.consistent && p.idempotent && p.probe_ok)
         points
  in
  Ok
    {
      seed;
      num_hosts;
      baseline_records;
      baseline_status = status_string baseline_status;
      baseline_probe_ok;
      points;
      ok;
    }

let render_sweep s =
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "migration crash sweep — seed %d, %d hosts, baseline %s (%d WAL \
     records, probe %s)\n"
    s.seed s.num_hosts s.baseline_status s.baseline_records
    (if s.baseline_probe_ok then "ok" else "FAILED");
  List.iter
    (fun p ->
      Printf.bprintf b
        "  crash@%-2d at %-9s -> %-42s -> %-12s consistent=%b idempotent=%b \
         probe=%b records=%d\n"
        p.crash_after p.crashed_at p.resolution p.recovered p.consistent
        p.idempotent p.probe_ok p.wal_records)
    s.points;
  Printf.bprintf b "verdict: %s\n" (if s.ok then "PASS" else "FAIL");
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Canary breach                                                       *)
(* ------------------------------------------------------------------ *)

type breach = {
  seed : int;
  member : string;
  member_status : string;
  rollback_reason : string;
  aborted : bool;
  skipped : int;
  rollbacks_total : int;
  breaker_trips : int;
  probe_ok : bool;
  panel : string;
  ok : bool;
  postmortem : Telemetry.Postmortem.snapshot option;
}

(* The breach runs under a freshly installed flight recorder: the trunk
   degradation, the liveness alert going firing, the canary rollback and
   the fleet abort all land in the event log, and the end of the run
   captures them as a post-mortem snapshot. *)
let rec canary_breach ?(num_hosts = 2) ~seed () =
  let* t = build ~num_switches:3 ~num_hosts ~seed () in
  Telemetry.Trace.with_recorder
    ~clock:(fun () -> Sim_time.to_ns (Engine.now t.engine))
    (fun recorder -> canary_breach_recorded t ~recorder ~seed)

and canary_breach_recorded t ~recorder ~seed =
  let sw0 = t.switches.(0) in
  (* Member 0's gate also schedules the attack: 6 ms after its first
     canary probe (i.e. past the 5 ms warmup) the freshly cut-over
     trunk goes to 95% loss. *)
  let armed = ref false in
  let wrap_probe probe () =
    if not !armed then begin
      armed := true;
      Fault.schedule t.inj
        [
          {
            Fault.after = Sim_time.ms 6;
            target = "trunk:" ^ sw0.name;
            action = Fault.Degrade { loss = 0.95; jitter = 0 };
          };
        ]
    end;
    probe ()
  in
  let members =
    List.init (Array.length t.switches) (fun i ->
        if i = 0 then
          {
            (member t i) with
            Migration.Fleet.gate = Some (gate ~wrap_probe t sw0);
          }
        else member t i)
  in
  let fl =
    Migration.Fleet.create t.engine ~wal:t.wal_ ~concurrency:1 ~blast_radius:0
      ~seed members
  in
  Migration.Fleet.run fl;
  let r = Migration.Fleet.report fl in
  let member_status, rollback_reason =
    match List.assoc_opt sw0.name r.Migration.Fleet.members with
    | Some (Migration.Fleet.Done (Migration.Rolled_back why) as st) ->
        (Format.asprintf "%a" Migration.pp_status
           (match st with Migration.Fleet.Done s -> s | _ -> assert false),
         why)
    | Some st ->
        ( Format.asprintf "%a"
            (fun ppf -> function
              | Migration.Fleet.Waiting -> Format.pp_print_string ppf "waiting"
              | Migration.Fleet.Migrating s ->
                  Format.fprintf ppf "migrating:%s" (Migration.stage_name s)
              | Migration.Fleet.Done s -> Migration.pp_status ppf s
              | Migration.Fleet.Skipped why ->
                  Format.fprintf ppf "skipped (%s)" why)
            st,
          "" )
    | None -> ("missing", "")
  in
  let probe_ok = probe_all t in
  let ok =
    r.Migration.Fleet.aborted <> None
    && rollback_reason <> ""
    && Migration.Fleet.rollbacks_total fl = 1
    && r.Migration.Fleet.skipped = 2
    && probe_ok
  in
  (* Capture-at-finalize: the trunk degradation is the trigger, the
     canary's liveness series the evidence. *)
  let postmortem =
    Telemetry.Postmortem.capture ~series:[ sw0.answered_series ]
      ~scenario:"canary-breach" ~seed
      ~captured_ns:(Sim_time.to_ns (Engine.now t.engine))
      recorder
  in
  Ok
    {
      seed;
      member = sw0.name;
      member_status;
      rollback_reason;
      aborted = r.Migration.Fleet.aborted <> None;
      skipped = r.Migration.Fleet.skipped;
      rollbacks_total = Migration.Fleet.rollbacks_total fl;
      breaker_trips = r.Migration.Fleet.breaker_trips;
      probe_ok;
      panel = Migration.Fleet.render fl;
      ok;
      postmortem;
    }

let render_breach br =
  let b = Buffer.create 512 in
  Printf.bprintf b "canary breach — seed %d\n" br.seed;
  Printf.bprintf b "  member %s: %s\n" br.member br.member_status;
  Printf.bprintf b "  rollback reason: %s\n"
    (if br.rollback_reason = "" then "(none)" else br.rollback_reason);
  Printf.bprintf b
    "  fleet aborted=%b skipped=%d rollbacks_total=%d breaker_trips=%d \
     probe=%s\n"
    br.aborted br.skipped br.rollbacks_total br.breaker_trips
    (if br.probe_ok then "ok" else "FAILED");
  Buffer.add_string b br.panel;
  (match br.postmortem with
  | None -> Printf.bprintf b "post-mortem: none captured\n"
  | Some s ->
      let tl = Telemetry.Postmortem.analyze s in
      Printf.bprintf b "post-mortem: %d event(s), root cause %s\n"
        (List.length s.Telemetry.Postmortem.events)
        (match tl.Telemetry.Postmortem.root_cause with
        | Some e ->
            e.Telemetry.Trace.stream ^ "." ^ e.Telemetry.Trace.name
        | None -> "unknown"));
  Printf.bprintf b "verdict: %s\n" (if br.ok then "PASS" else "FAIL");
  Buffer.contents b
