(* E3 — "no major latency penalty": one-way latency percentiles of
   timestamped probes under light and moderate Poisson load, legacy vs
   COTS hardware vs HARMLESS.  The HARMLESS penalty is the extra trunk
   crossings plus two software-switch services — it should be a small
   constant, not a blow-up. *)

open Simnet

let _num_hosts = 8
let measure = Sim_time.ms 50

type row = {
  deployment : string;
  frame : int;
  load : float; (* fraction of GbE line rate offered per sender *)
  p50_ns : int;
  p99_ns : int;
  mean_ns : float;
  samples : int;
}

let probe_load (deployment : Harmless.Deployment.t) ~label ~frame ~load =
  let engine = deployment.Harmless.Deployment.engine in
  let rng = Rng.create 7 in
  let rate = load *. (1e9 /. float_of_int (frame * 8)) in
  let stop = Sim_time.add (Engine.now engine) measure in
  List.iter
    (fun s ->
      let dst = s + 4 in
      ignore
        (Traffic.udp_stream ~rng:(Rng.split rng)
           ~src:(Harmless.Deployment.host deployment s)
           ~dst_mac:(Harmless.Deployment.host_mac dst)
           ~dst_ip:(Harmless.Deployment.host_ip dst)
           ~src_port:(10000 + s) ~stop (Traffic.Poisson rate)
           (Traffic.Fixed frame) ()))
    [ 0; 1; 2; 3 ];
  Common.run_for engine (measure + Sim_time.ms 5);
  let merged =
    Array.fold_left
      (fun acc h -> Telemetry.Hdr.merge acc (Host.latency h))
      (Telemetry.Hdr.create ())
      deployment.Harmless.Deployment.hosts
  in
  {
    deployment = label;
    frame;
    load;
    p50_ns = Telemetry.Hdr.percentile merged 50.0;
    p99_ns = Telemetry.Hdr.percentile merged 99.0;
    mean_ns = Telemetry.Hdr.mean merged;
    samples = Telemetry.Hdr.count merged;
  }

let variants () =
  [
    ("legacy L2 (pre-migration)", E2_throughput.build_legacy ());
    ("COTS SDN hardware", E2_throughput.build_cots ());
    ( "HARMLESS / ESwitch",
      E2_throughput.build_harmless Softswitch.Soft_switch.Eswitch () );
    ( "HARMLESS / OVS-like",
      E2_throughput.build_harmless
        (Softswitch.Soft_switch.Ovs Softswitch.Ovs_like.default_config)
        () );
  ]

let cases = [ (64, 0.1); (64, 0.5); (1518, 0.1); (1518, 0.5) ]

let rows () =
  List.concat_map
    (fun (frame, load) ->
      List.map
        (fun (label, deployment) -> probe_load deployment ~label ~frame ~load)
        (variants ()))
    cases

let run () =
  let rows = rows () in
  Tables.print
    ~title:"E3: one-way latency of timestamped probes (Poisson arrivals)"
    ~header:[ "deployment"; "frame B"; "load"; "p50"; "p99"; "mean"; "n" ]
    (List.map
       (fun r ->
         [
           r.deployment;
           string_of_int r.frame;
           Tables.pct r.load;
           Tables.us r.p50_ns;
           Tables.us r.p99_ns;
           Tables.us (int_of_float r.mean_ns);
           string_of_int r.samples;
         ])
       rows);
  rows
