(* E2 — "no major performance penalty": offered vs delivered throughput
   across frame sizes, for the pre-migration legacy network, a COTS
   OpenFlow hardware switch, and HARMLESS with three software dataplanes.

   4 senders each offer GbE line rate to 4 receivers for a measured
   window; the HARMLESS trunk is 10G, so the fabric is never the
   bottleneck — any loss is the software switch's. *)

open Simnet
open Openflow

let num_hosts = 8
let senders = [ 0; 1; 2; 3 ]
let measure = Sim_time.ms 10

type row = {
  deployment : string;
  frame : int;
  offered_pps : float;
  delivered_pps : float;
  delivered_bps : float;
  loss : float;
}

(* 1000 high-priority exact rules that never match: the linear dataplane
   must scan them per packet — the "big OF program" case. *)
let filler_rules ctrl dpid =
  for i = 0 to 999 do
    Sdnctl.Controller.install ctrl dpid
      (Of_message.add_flow ~priority:1500
         ~match_:
           Of_match.(
             any
             |> eth_type 0x0800
             |> ip_dst
                  (Netpkt.Ipv4_addr.Prefix.make
                     (Netpkt.Ipv4_addr.of_octets 172 16 (i / 256) (i mod 256))
                     32))
         [ Flow_entry.Apply_actions [ Of_action.Drop ] ])
  done

let filler_app =
  {
    (Sdnctl.Controller.no_op_app "filler") with
    Sdnctl.Controller.switch_up = filler_rules;
  }

let line_rate_pps wire = 1e9 /. float_of_int (wire * 8)

let measure_deployment ~label ~frame (deployment : Harmless.Deployment.t) =
  let engine = deployment.Harmless.Deployment.engine in
  let rng = Rng.create 42 in
  let rate = line_rate_pps frame in
  let before = Common.total_udp_received deployment in
  let stop = Sim_time.add (Engine.now engine) measure in
  let streams =
    List.map
      (fun s ->
        let dst = s + 4 in
        Traffic.udp_stream ~rng:(Rng.split rng)
          ~src:(Harmless.Deployment.host deployment s)
          ~dst_mac:(Harmless.Deployment.host_mac dst)
          ~dst_ip:(Harmless.Deployment.host_ip dst)
          ~src_port:(10000 + s) ~stop (Traffic.Cbr rate)
          (Traffic.Fixed frame) ())
      senders
  in
  (* Run past the stop so in-flight packets drain. *)
  Common.run_for engine (measure + Sim_time.ms 5);
  let sent = List.fold_left (fun acc s -> acc + Traffic.sent s) 0 streams in
  let delivered = Common.total_udp_received deployment - before in
  let seconds = Sim_time.span_to_seconds measure in
  {
    deployment = label;
    frame;
    offered_pps = float_of_int sent /. seconds;
    delivered_pps = float_of_int delivered /. seconds;
    delivered_bps = float_of_int (delivered * frame * 8) /. seconds;
    loss =
      (if sent = 0 then 0.0
       else Float.max 0.0 (1.0 -. (float_of_int delivered /. float_of_int sent)));
  }

let build_legacy () =
  let engine = Engine.create () in
  let d = Harmless.Deployment.build_legacy_only engine ~num_hosts () in
  Common.warm_legacy d;
  d

let build_cots () =
  let engine = Engine.create () in
  let d =
    Harmless.Deployment.build_plain_openflow engine ~num_hosts
      ~dataplane:Softswitch.Soft_switch.Hardware ~max_flow_entries:2000 ()
  in
  ignore (Common.attach_with_apps d [ Common.proactive_l2 ~num_hosts ]);
  d

let build_harmless ?(extra_apps = []) dataplane () =
  let engine = Engine.create () in
  let d =
    Common.built (Harmless.Deployment.build_harmless engine ~num_hosts ~dataplane ())
  in
  ignore
    (Common.attach_with_apps d (extra_apps @ [ Common.proactive_l2 ~num_hosts ]));
  d

let variants =
  [
    ("legacy L2 (pre-migration)", fun () -> build_legacy ());
    ("COTS SDN hardware", fun () -> build_cots ());
    ( "HARMLESS / ESwitch",
      fun () -> build_harmless Softswitch.Soft_switch.Eswitch () );
    ( "HARMLESS / OVS-like",
      fun () ->
        build_harmless (Softswitch.Soft_switch.Ovs Softswitch.Ovs_like.default_config) () );
    ( "HARMLESS / linear +1k rules",
      fun () ->
        build_harmless ~extra_apps:[ filler_app ] Softswitch.Soft_switch.Linear () );
  ]

let frame_sizes = [ 64; 128; 256; 512; 1024; 1518 ]

let rows () =
  List.concat_map
    (fun (label, build) ->
      List.map
        (fun frame -> measure_deployment ~label ~frame (build ()))
        frame_sizes)
    variants

let run () =
  let rows = rows () in
  Tables.print
    ~title:
      "E2: throughput, 4x GbE line-rate senders (10G trunk), per dataplane"
    ~header:
      [ "deployment"; "frame B"; "offered"; "delivered"; "goodput"; "loss" ]
    (List.map
       (fun r ->
         [
           r.deployment;
           string_of_int r.frame;
           Tables.mpps r.offered_pps;
           Tables.mpps r.delivered_pps;
           Tables.gbps r.delivered_bps;
           Tables.pct r.loss;
         ])
       rows);
  rows
