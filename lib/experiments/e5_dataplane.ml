(* E5 — dataplane scaling (the ESwitch property, ref [9] of the paper):
   model-cycles per packet and the implied single-core packet rate as the
   flow table grows, for each dataplane, under uniform and skewed
   (zipf 1.1) flow popularity.

   Expected shape: linear degrades with the rule count; the OVS-like
   caches hold up (especially under skew, where the EMC covers the hot
   flows); the ESwitch-like specializer stays near-constant because the
   rules compile to a couple of templates. *)

open Netpkt
open Openflow
open Softswitch

let ghz = Pmd.default_config.Pmd.ghz

(* SS_2-flavoured workload: exact ip_dst rules (one per "service"), one
   wildcard ARP rule and a low-priority drop fence — a few templates, many
   rules, like a real OF program. *)
let build_pipeline num_rules =
  let pipeline = Pipeline.create ~num_tables:1 () in
  let table = Pipeline.table pipeline 0 in
  for i = 0 to num_rules - 1 do
    let ip = Ipv4_addr.of_octets 10 1 (i / 256) (i mod 256) in
    Flow_table.add table ~now_ns:0
      (Flow_entry.make ~priority:2000
         ~match_:Of_match.(any |> eth_type 0x0800 |> ip_dst (Ipv4_addr.Prefix.make ip 32))
         [ Flow_entry.Apply_actions [ Of_action.output (i mod 16) ] ])
  done;
  Flow_table.add table ~now_ns:0
    (Flow_entry.make ~priority:1900
       ~match_:Of_match.(any |> eth_type 0x0806)
       [ Flow_entry.Apply_actions [ Of_action.Output Of_action.Flood ] ]);
  Flow_table.add table ~now_ns:0
    (Flow_entry.make ~priority:1
       ~match_:Of_match.any
       [ Flow_entry.Apply_actions [ Of_action.Drop ] ]);
  pipeline

let workload ~rng ~num_rules ~skew ~count =
  let zipf = Simnet.Rng.Zipf.create ~n:num_rules ~skew in
  Array.init count (fun _ ->
      let i = Simnet.Rng.Zipf.draw zipf rng in
      let dst_ip = Ipv4_addr.of_octets 10 1 (i / 256) (i mod 256) in
      Packet.udp
        ~dst:(Mac_addr.make_local 999)
        ~src:(Mac_addr.make_local (1 + Simnet.Rng.int rng 64))
        ~ip_src:(Ipv4_addr.of_octets 10 0 0 (1 + Simnet.Rng.int rng 250))
        ~ip_dst:dst_ip
        ~src_port:(1024 + Simnet.Rng.int rng 60000)
        ~dst_port:80 "0123456789")

type row = {
  dataplane : string;
  rules : int;
  skew : float;
  avg_cycles : float;
  model_mpps : float;
}

let dataplanes pipeline =
  [
    Linear.create pipeline;
    Ovs_like.create pipeline;
    Ovs_like.create
      ~config:{ Ovs_like.default_config with Ovs_like.emc_enabled = false }
      pipeline;
    Eswitch.create pipeline;
  ]

let measure ~rules ~skew =
  let packets = workload ~rng:(Simnet.Rng.create 11) ~num_rules:rules ~skew ~count:20000 in
  List.map
    (fun (dp : Dataplane.t) ->
      let total = ref 0 in
      Array.iter
        (fun pkt ->
          let result = dp.Dataplane.process ~now_ns:0 ~in_port:0 pkt in
          total := !total + result.Pipeline.cycles)
        packets;
      let avg = float_of_int !total /. float_of_int (Array.length packets) in
      let per_packet =
        avg
        +. float_of_int Pmd.default_config.Pmd.per_packet_io_cycles
        +. (float_of_int Pmd.default_config.Pmd.per_batch_cycles
            /. float_of_int Pmd.default_config.Pmd.batch_size)
      in
      {
        dataplane = dp.Dataplane.name;
        rules;
        skew;
        avg_cycles = avg;
        model_mpps = ghz *. 1e3 /. per_packet;
      })
    (dataplanes (build_pipeline rules))

let rule_counts = [ 10; 100; 1000; 10000 ]
let skews = [ 0.0; 1.1 ]

let rows () =
  List.concat_map
    (fun rules -> List.concat_map (fun skew -> measure ~rules ~skew) skews)
    rule_counts

let run () =
  let rows = rows () in
  Tables.print
    ~title:
      "E5: dataplane lookup scaling (model cycles; single 2.6 GHz core)"
    ~header:[ "dataplane"; "rules"; "skew"; "avg cycles/pkt"; "model rate" ]
    (List.map
       (fun r ->
         [
           r.dataplane;
           string_of_int r.rules;
           Tables.f1 r.skew;
           Tables.f1 r.avg_cycles;
           Tables.mpps (r.model_mpps *. 1e6);
         ])
       rows);
  rows
