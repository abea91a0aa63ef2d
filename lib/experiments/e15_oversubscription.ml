open Simnet

type row = {
  hosts : int;
  offered_gbps : float;
  delivered_gbps : float;
  loss : float;
  trunk_util : float;
}

let frame = 1518
let measure_span = Sim_time.ms 20

let measure ~hosts () =
  let engine = Engine.create () in
  let deployment =
    Common.built (Harmless.Deployment.build_harmless engine ~num_hosts:hosts ())
  in
  ignore
    (Common.attach_with_apps deployment [ Common.proactive_l2 ~num_hosts:hosts ]);
  let rng = Rng.create 3 in
  let rate = 1e9 /. float_of_int (frame * 8) (* GbE line rate per host *) in
  let stop = Sim_time.add (Engine.now engine) measure_span in
  let streams =
    List.init hosts (fun i ->
        let dst = (i + 1) mod hosts in
        Traffic.udp_stream ~rng:(Rng.split rng)
          ~src:(Harmless.Deployment.host deployment i)
          ~dst_mac:(Harmless.Deployment.host_mac dst)
          ~dst_ip:(Harmless.Deployment.host_ip dst)
          ~src_port:(10000 + i) ~stop (Traffic.Cbr rate) (Traffic.Fixed frame) ())
  in
  Common.run_for engine (measure_span + Sim_time.ms 10);
  let sent = List.fold_left (fun acc s -> acc + Traffic.sent s) 0 streams in
  let delivered = Common.total_udp_received deployment in
  let seconds = Sim_time.span_to_seconds measure_span in
  let gbps count = float_of_int (count * frame * 8) /. seconds /. 1e9 in
  let trunk_util =
    match deployment.Harmless.Deployment.kind with
    | Harmless.Deployment.Harmless { trunk_link; _ } ->
        Link.utilization_a_to_b trunk_link ~now:(Engine.now engine)
    | _ -> 0.0
  in
  {
    hosts;
    offered_gbps = gbps sent;
    delivered_gbps = gbps delivered;
    loss =
      (if sent = 0 then 0.0
       else Float.max 0.0 (1.0 -. (float_of_int delivered /. float_of_int sent)));
    trunk_util;
  }

let host_counts = [ 4; 8; 10; 12; 16 ]

let rows () = List.map (fun hosts -> measure ~hosts ()) host_counts

let run () =
  let rows = rows () in
  Tables.print
    ~title:
      "E15: trunk oversubscription (hosts at GbE line rate, one 10G trunk)"
    ~header:[ "hosts"; "offered"; "delivered"; "loss"; "trunk util" ]
    (List.map
       (fun r ->
         [
           string_of_int r.hosts;
           Tables.gbps (r.offered_gbps *. 1e9);
           Tables.gbps (r.delivered_gbps *. 1e9);
           Tables.pct r.loss;
           Tables.pct r.trunk_util;
         ])
       rows);
  Printf.printf
    "\nbelow ~10 offered Gbps the fabric is invisible; past it the trunk is\n\
     the bottleneck — the reason the cost model pairs one trunk (and one\n\
     server NIC port) with each 48-port switch rather than oversubscribing.\n";
  rows
