(* Deterministic profiling rig: the HARMLESS sandwich and a direct
   OpenFlow deployment, warmed up, driven with identical ping
   sequences under a trace recorder, folded into per-stage profiles.
   Sim-clock only, so the whole report is reproducible byte-for-byte. *)

open Simnet

type report = {
  harmless : Telemetry.Profile.t;
  plain : Telemetry.Profile.t;
  num_hosts : int;
  pings : int;
}

(* Only complete fast-path host-to-host walks enter the profile:
   warm-up floods and controller-detoured packets have a different
   stage structure and would break the homogeneous-workload invariant
   (one controller round trip is ~40x a fast-path walk, so a single
   leaked detour wrecks the attribution sum). *)
let complete (trace : Telemetry.Trace.trace) =
  match trace.Telemetry.Trace.hops with
  | [] | [ _ ] -> false
  | first :: rest ->
      let last = List.nth rest (List.length rest - 1) in
      first.Telemetry.Trace.layer = Telemetry.Trace.Host
      && first.Telemetry.Trace.stage = "tx"
      && last.Telemetry.Trace.layer = Telemetry.Trace.Host
      && last.Telemetry.Trace.stage = "rx"
      && not
           (List.exists
              (fun (h : Telemetry.Trace.hop) ->
                h.Telemetry.Trace.layer = Telemetry.Trace.Controller)
              trace.Telemetry.Trace.hops)

let profile_deployment ~pings deployment =
  let engine = deployment.Deployment.engine in
  let ctrl = Sdnctl.Controller.create engine () in
  Sdnctl.Controller.add_app ctrl (Sdnctl.L2_learning.create ());
  let _dpid =
    Sdnctl.Controller.attach_switch ctrl (Deployment.controller_switch deployment)
  in
  Engine.run engine ~until:(Sim_time.add (Engine.now engine) (Sim_time.ms 5));
  let n = Deployment.num_hosts deployment in
  let pairs = n * (n - 1) in
  let seq = ref 0 in
  let ping k =
    incr seq;
    Chaos.ping_ordered_pair deployment.Deployment.hosts k ~seq:!seq
  in
  let step k =
    ping k;
    Engine.run engine ~until:(Sim_time.add (Engine.now engine) (Sim_time.ms 1))
  in
  (* Warm-up, two phases.  Ring first: one ping from every host while
     the flow tables are still empty, so every host's packet punts and
     the controller learns every MAC.  The order matters — the
     L2-learning app only learns sources from punted packets, and once
     a dst-flow is installed the hosts behind it stop punting; seeding
     the pair round directly can leave a host unlearned forever (with 3
     hosts, h2's replies always ride the h0/h1 flows, so every packet
     *to* h2 detours for the rest of the run).  Then one round over
     every ordered pair installs the controller's flows and teaches the
     dataplane MAC tables, so measured pings below all take the fast
     path. *)
  for src = 0 to n - 1 do
    incr seq;
    let dst = (src + 1) mod n in
    Host.ping
      (Deployment.host deployment src)
      ~dst_mac:(Deployment.host_mac dst) ~dst_ip:(Deployment.host_ip dst)
      ~seq:!seq;
    Engine.run engine ~until:(Sim_time.add (Engine.now engine) (Sim_time.ms 1))
  done;
  for k = 0 to pairs - 1 do
    step k
  done;
  let traces =
    Telemetry.Trace.with_recorder (fun r ->
        for k = 0 to pings - 1 do
          step k
        done;
        Telemetry.Trace.traces r)
  in
  let view = Trace_view.of_deployment deployment in
  let profile = Telemetry.Profile.create () in
  Telemetry.Profile.record_traces
    ~stage_of:(Trace_view.semantic view)
    profile
    (List.filter complete traces);
  profile

let run ?(num_hosts = 4) ?(pings = 40) ?dataplane () =
  let ( let* ) = Result.bind in
  if num_hosts < 2 then Error "perf rig: need at least 2 hosts"
  else if pings < 1 then Error "perf rig: need at least 1 ping"
  else
    let* harmless_deployment =
      Deployment.build_harmless (Engine.create ()) ~num_hosts ?dataplane ()
    in
    let harmless = profile_deployment ~pings harmless_deployment in
    let plain_deployment =
      Deployment.build_plain_openflow (Engine.create ()) ~num_hosts ?dataplane ()
    in
    let plain = profile_deployment ~pings plain_deployment in
    Ok { harmless; plain; num_hosts; pings }

let overhead_ratio r =
  match (Telemetry.Profile.e2e r.harmless, Telemetry.Profile.e2e r.plain) with
  | Some h, Some p when p.Telemetry.Profile.p50 > 0 ->
      Some
        (float_of_int h.Telemetry.Profile.p50
        /. float_of_int p.Telemetry.Profile.p50)
  | _ -> None

let attribution r =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "per-stage attribution — HARMLESS path (%d hosts, %d measured pings)\n"
    r.num_hosts r.pings;
  add "%s\n" (Telemetry.Profile.attribution_table r.harmless);
  add "per-stage attribution — direct OpenFlow path (control group)\n";
  add "%s\n" (Telemetry.Profile.attribution_table r.plain);
  (match
     (Telemetry.Profile.e2e r.harmless, Telemetry.Profile.e2e r.plain,
      overhead_ratio r)
   with
  | Some h, Some p, Some ratio ->
      add
        "HARMLESS e2e p50 %s vs direct p50 %s — overhead ratio %.2fx\n"
        (Format.asprintf "%a" Telemetry.Trace.pp_time h.Telemetry.Profile.p50)
        (Format.asprintf "%a" Telemetry.Trace.pp_time p.Telemetry.Profile.p50)
        ratio
  | _ -> add "overhead ratio: not enough complete traces\n");
  Buffer.contents buf
