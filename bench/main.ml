(* Bechamel microbenchmarks — the wall-clock companions to the model-based
   experiment tables (see DESIGN.md section 4 and EXPERIMENTS.md):

   - lookup/*       -> E5 (dataplane scaling), real time per classification
                       on warmed caches.  lookup/ovs-N cycles 1024
                       microflows, so it measures an EMC-resident steady
                       state (99% EMC hits), not thrash.  lookup/ovs-churn-1000
                       cycles 32,768, more than 4x the EMC, so ~98% of runs
                       miss the EMC, hit the megaflow cache and evict an EMC
                       slot: the micro companion of e2e zipf-imix-ovs.
                       lookup/eswitch-l4-1000 keys 1000 rules on l4_dst
                       alone, so it prices how well ESwitch hashes the
                       last key components.  lookup/eswitch-update-1000
                       re-adds one of E5's 1000 rules (a fresh entry,
                       as L2 learning sends) and classifies one packet:
                       the flow-mod plus ESwitch's incremental sync
   - translator/*   -> the SS_1 split ablation (DESIGN section 5)
   - pmd/batch-*    -> PMD batching ablation
   - engine/*       -> the event queue alone: 1,000 frames per run through
                       about 234 in flight over 20 sinks (a hairpin run's
                       shape), in order (the sinks' lanes) or jittered
                       (the out-of-order fallback)
   - legacy/*       -> the legacy switch's MAC table: 1,000 refreshes or
                       lookups per run over zipf-imix-ovs's table (48
                       hosts' MACs on each of 48 access VLANs)
   - e2e/*          -> E2/E3 companions: a full ping through HARMLESS
   - wire/*, table/* and mgmt/* -> substrate costs backing everything else

   After the microbenches, the experiment tables (E1-E10) are printed so
   `dune exec bench/main.exe` regenerates every figure in one artifact. *)

open Bechamel
open Toolkit

let mac i = Netpkt.Mac_addr.make_local i
let ip = Netpkt.Ipv4_addr.of_string

(* ---- lookup/* : one classification per run ---- *)

let lookup_tests =
  let module E5 = Experiments_lib.E5_dataplane in
  (* One pass over the packet ring warms the caches before measuring. *)
  let bench name (dp : Softswitch.Dataplane.t) packets =
    let process pkt =
      ignore (dp.Softswitch.Dataplane.process ~now_ns:0 ~in_port:0 pkt)
    in
    Array.iter process packets;
    let i = ref 0 in
    Test.make ~name
      (Staged.stage (fun () ->
           process packets.(!i mod Array.length packets);
           incr i))
  in
  let mk_bench name dataplane_of rules =
    bench
      (Printf.sprintf "%s-%d" name rules)
      (dataplane_of (E5.build_pipeline rules))
      (E5.workload ~rng:(Simnet.Rng.create 5) ~num_rules:rules ~skew:0.0 ~count:1024)
  in
  (* 32,768 microflows: a distinct source port each, spread over the
     1000 rules' destinations *)
  let churn_packets =
    Array.init 32_768 (fun i ->
        let rule = i mod 1000 in
        Netpkt.Packet.udp ~dst:(mac 999) ~src:(mac 1) ~ip_src:(ip "10.0.0.1")
          ~ip_dst:(Netpkt.Ipv4_addr.of_octets 10 1 (rule / 256) (rule mod 256))
          ~src_port:(1024 + i) ~dst_port:80 "0123456789")
  in
  (* 1000 rules keyed on eth_type+ip_proto+l4_dst, packets cycling the
     1000 ports: an exact template whose distinguishing field sits past
     the tenth component of the key *)
  let l4_eswitch =
    let p = Openflow.Pipeline.create ~num_tables:1 () in
    for i = 0 to 999 do
      Openflow.Flow_table.add (Openflow.Pipeline.table p 0) ~now_ns:0
        (Openflow.Flow_entry.make ~priority:1000
           ~match_:
             Openflow.Of_match.(any |> eth_type 0x0800 |> ip_proto 17 |> l4_dst (1000 + i))
           [ Openflow.Flow_entry.Apply_actions [ Openflow.Of_action.output (i mod 8) ] ])
    done;
    Softswitch.Eswitch.create p
  in
  let l4_packets =
    Array.init 1000 (fun i ->
        Netpkt.Packet.udp ~dst:(mac 2) ~src:(mac 1) ~ip_src:(ip "10.0.0.1")
          ~ip_dst:(ip "10.0.0.2") ~src_port:5000 ~dst_port:(1000 + i) "0123456789")
  in
  let update_eswitch =
    let p = E5.build_pipeline 1000 in
    let table = Openflow.Pipeline.table p 0 in
    let dp = Softswitch.Eswitch.create p in
    let packets = E5.workload ~rng:(Simnet.Rng.create 5) ~num_rules:1000 ~skew:0.0 ~count:1024 in
    Array.iter (fun pkt -> ignore (dp.Softswitch.Dataplane.process ~now_ns:0 ~in_port:0 pkt)) packets;
    let i = ref 0 in
    Test.make ~name:"eswitch-update-1000"
      (Staged.stage (fun () ->
           let rule = !i mod 1000 in
           Openflow.Flow_table.add table ~now_ns:0
             (Openflow.Flow_entry.make ~priority:2000
                ~match_:
                  Openflow.Of_match.(
                    any |> eth_type 0x0800
                    |> ip_dst
                         (Netpkt.Ipv4_addr.Prefix.make
                            (Netpkt.Ipv4_addr.of_octets 10 1 (rule / 256) (rule mod 256))
                            32))
                [ Openflow.Flow_entry.Apply_actions [ Openflow.Of_action.output (rule mod 16) ] ]);
           ignore
             (dp.Softswitch.Dataplane.process ~now_ns:0 ~in_port:0
                packets.(!i mod Array.length packets));
           incr i))
  in
  Test.make_grouped ~name:"lookup"
    (List.concat_map
       (fun rules ->
         [
           mk_bench "linear" Softswitch.Linear.create rules;
           mk_bench "ovs" (fun p -> Softswitch.Ovs_like.create p) rules;
           mk_bench "eswitch" Softswitch.Eswitch.create rules;
         ])
       [ 100; 1000 ]
    @ [
        bench "ovs-churn-1000"
          (Softswitch.Ovs_like.create (E5.build_pipeline 1000))
          churn_packets;
        bench "eswitch-l4-1000" l4_eswitch l4_packets;
        update_eswitch;
      ])

(* ---- translator/* : SS_1 in both directions ---- *)

let translator_tests =
  let engine = Simnet.Engine.create () in
  let map = Harmless.Port_map.make ~access_ports:[ 0; 1; 2; 3 ] () in
  let server = Harmless.Server.build engine ~nics:1 ~ss2:"b-ss2" [ ("b", map) ] in
  let ss1 = server.Harmless.Server.ss1s.(0) in
  let tagged =
    Netpkt.Packet.udp
      ~vlans:[ Netpkt.Vlan.make 102 ]
      ~dst:(mac 2) ~src:(mac 1) ~ip_src:(ip "10.0.0.1") ~ip_dst:(ip "10.0.0.2")
      ~src_port:1 ~dst_port:2 "x"
  in
  let untagged =
    Netpkt.Packet.udp ~dst:(mac 2) ~src:(mac 1) ~ip_src:(ip "10.0.0.1")
      ~ip_dst:(ip "10.0.0.2") ~src_port:1 ~dst_port:2 "x"
  in
  Test.make_grouped ~name:"translator"
    [
      Test.make ~name:"trunk-to-patch"
        (Staged.stage (fun () ->
             ignore
               (Softswitch.Soft_switch.process_direct ss1 ~now_ns:0 ~in_port:0 tagged)));
      Test.make ~name:"patch-to-trunk"
        (Staged.stage (fun () ->
             ignore
               (Softswitch.Soft_switch.process_direct ss1 ~now_ns:0 ~in_port:2
                  untagged)));
    ]

(* ---- pmd/batch-* : 256 packets through the CPU model ---- *)

let pmd_tests =
  let mk batch =
    Test.make
      ~name:(Printf.sprintf "batch-%d" batch)
      (Staged.stage (fun () ->
           let engine = Simnet.Engine.create () in
           let pmd =
             Softswitch.Pmd.create engine
               ~config:{ Softswitch.Pmd.default_config with Softswitch.Pmd.batch_size = batch }
               ()
           in
           let complete () = Softswitch.Pmd.complete pmd in
           for _ = 1 to 256 do
             let finish = Softswitch.Pmd.admit pmd ~cycles:120 in
             if finish >= 0 then
               Simnet.Engine.schedule_at engine (Simnet.Sim_time.of_ns finish) complete
           done;
           Simnet.Engine.run engine))
  in
  Test.make_grouped ~name:"pmd" [ mk 1; mk 32; mk 256 ]

(* ---- engine/* : 1,000 frames through the event queue per run ---- *)

let engine_tests =
  let frames = 1_000 and sinks = 20 and depth = 234 in
  let mk name ~jitter =
    let open Simnet in
    let engine = Engine.create () in
    let pkt = Netpkt.Packet.make ~dst:(mac 2) ~src:(mac 1) (Netpkt.Packet.Raw (Netpkt.Ethertype.of_int 0x88b5, "")) in
    let sinks = Array.init sinks (fun _ -> Engine.sink engine (fun _ _ -> ())) in
    let next = ref 0 in
    (* Each sink's frames arrive 1 us after they are sent, plus up to
       [jitter] ns drawn from a fixed cycle, as a degraded link adds. *)
    let deliver () =
      let k = !next in
      next := k + 1;
      let extra = if jitter = 0 then 0 else k * 7919 mod (jitter + 1) in
      Engine.deliver_at engine
        (Sim_time.add (Engine.now engine) (1_000 + extra))
        sinks.(k mod Array.length sinks) 0 pkt
    in
    for _ = 1 to depth do
      deliver ()
    done;
    Test.make ~name
      (Staged.stage (fun () ->
           for _ = 1 to frames do
             ignore (Engine.step engine);
             deliver ()
           done))
  in
  Test.make_grouped ~name:"engine"
    [ mk "deliver-in-order" ~jitter:0; mk "deliver-jittered" ~jitter:500 ]

(* ---- legacy/* : 1,000 MAC table operations per run ---- *)

let legacy_tests =
  let module M = Ethswitch.Mac_table in
  let hosts = 48 in
  let keys = hosts * hosts and now = Simnet.Sim_time.zero in
  let addrs = Array.init hosts (fun i -> mac (i + 1)) in
  let vlan k = 1 + (k / hosts) and addr k = addrs.(k mod hosts) in
  let table = M.create () in
  for k = 0 to keys - 1 do
    M.learn table ~now ~vlan:(vlan k) ~mac:(addr k) ~port:(k mod hosts)
  done;
  (* A stride coprime to [keys] walks every key before it repeats. *)
  let next = ref 0 in
  let each f () =
    for _ = 1 to 1_000 do
      let k = !next in
      next := (k + 7) mod keys;
      f k
    done
  in
  Test.make_grouped ~name:"legacy"
    [
      Test.make ~name:"mac-learn-refresh"
        (Staged.stage
           (each (fun k -> M.learn table ~now ~vlan:(vlan k) ~mac:(addr k) ~port:(k mod hosts))));
      Test.make ~name:"mac-lookup"
        (Staged.stage
           (each (fun k -> ignore (M.lookup table ~now ~vlan:(vlan k) ~mac:(addr k)))));
    ]

(* ---- e2e/* : a full ping through a prebuilt deployment ---- *)

let e2e_tests =
  let build kind =
    let engine = Simnet.Engine.create () in
    let deployment =
      match kind with
      | `Harmless -> (
          match Harmless.Deployment.build_harmless engine ~num_hosts:2 () with
          | Ok d -> d
          | Error m -> failwith m)
      | `Plain -> Harmless.Deployment.build_plain_openflow engine ~num_hosts:2 ()
    in
    ignore
      (Experiments_lib.Common.attach_with_apps deployment
         [ Experiments_lib.Common.proactive_l2 ~num_hosts:2 ]);
    deployment
  in
  let ping_through deployment =
    let engine = deployment.Harmless.Deployment.engine in
    let h0 = Harmless.Deployment.host deployment 0 in
    let seq = ref 0 in
    fun () ->
      incr seq;
      Simnet.Host.ping h0
        ~dst_mac:(Harmless.Deployment.host_mac 1)
        ~dst_ip:(Harmless.Deployment.host_ip 1)
        ~seq:(!seq land 0xffff);
      Simnet.Engine.run engine
  in
  let harmless = ping_through (build `Harmless) in
  let plain = ping_through (build `Plain) in
  Test.make_grouped ~name:"e2e"
    [
      Test.make ~name:"ping-harmless" (Staged.stage harmless);
      Test.make ~name:"ping-plain-of" (Staged.stage plain);
    ]

(* ---- substrate costs ---- *)

let wire_tests =
  let pkt =
    Netpkt.Packet.pad_to 1518
      (Netpkt.Packet.udp ~dst:(mac 2) ~src:(mac 1) ~ip_src:(ip "10.0.0.1")
         ~ip_dst:(ip "10.0.0.2") ~src_port:1 ~dst_port:2 "payload")
  in
  let raw = Netpkt.Packet.encode pkt in
  Test.make_grouped ~name:"wire"
    [
      Test.make ~name:"encode-1518" (Staged.stage (fun () -> ignore (Netpkt.Packet.encode pkt)));
      Test.make ~name:"decode-1518" (Staged.stage (fun () -> ignore (Netpkt.Packet.decode raw)));
      Test.make ~name:"checksum-1500"
        (Staged.stage (fun () -> ignore (Netpkt.Checksum.checksum raw)));
      Test.make ~name:"fields-extract"
        (Staged.stage (fun () -> ignore (Netpkt.Packet.Fields.of_packet pkt)));
    ]

let table_tests =
  let table = Ethswitch.Mac_table.create () in
  (* Keys are built here, outside the timed closure: the row prices the
     table, not Mac_addr.make_local. *)
  let macs = Array.init 4096 mac in
  let i = ref 0 in
  let flow_table = Openflow.Flow_table.create () in
  for k = 0 to 999 do
    Openflow.Flow_table.add flow_table ~now_ns:0
      (Openflow.Flow_entry.make ~priority:(k + 10)
         ~match_:Openflow.Of_match.(any |> eth_dst (mac (5000 + k)))
         [ Openflow.Flow_entry.Apply_actions [ Openflow.Of_action.output 1 ] ])
  done;
  let fields =
    Netpkt.Packet.Fields.of_packet
      (Netpkt.Packet.udp ~dst:(mac 5999) ~src:(mac 1) ~ip_src:(ip "10.0.0.1")
         ~ip_dst:(ip "10.0.0.2") ~src_port:1 ~dst_port:2 "x")
  in
  Test.make_grouped ~name:"table"
    [
      Test.make ~name:"mac-learn-lookup"
        (Staged.stage (fun () ->
             incr i;
             let m = macs.(!i land 0xfff) in
             Ethswitch.Mac_table.learn table ~now:Simnet.Sim_time.zero ~vlan:1 ~mac:m
               ~port:(!i land 7);
             ignore
               (Ethswitch.Mac_table.lookup table ~now:Simnet.Sim_time.zero ~vlan:1 ~mac:m)));
      Test.make ~name:"flow-lookup-1k-worst"
        (Staged.stage (fun () ->
             ignore (Openflow.Flow_table.lookup flow_table ~in_port:0 fields)));
    ]

let mgmt_tests =
  let engine = Simnet.Engine.create () in
  let sw = Ethswitch.Legacy_switch.create engine ~name:"bsw" ~ports:48 () in
  let device = Mgmt.Device.create ~switch:sw ~vendor:Mgmt.Device.Cisco_like () in
  let agent = Mgmt.Device.snmp device in
  let text = Mgmt.Device.running_config_text device in
  Test.make_grouped ~name:"mgmt"
    [
      Test.make ~name:"snmp-get"
        (Staged.stage (fun () ->
             ignore (Mgmt.Snmp.get agent ~community:"public" Mgmt.Oid.Std.sys_name)));
      Test.make ~name:"config-render-parse-48p"
        (Staged.stage (fun () ->
             match Mgmt.Dialect.Ios.parse text with
             | Ok _ -> ()
             | Error e -> failwith e));
    ]

let cost_tests =
  Test.make_grouped ~name:"cost"
    [
      Test.make ~name:"sweep-8..384"
        (Staged.stage (fun () ->
             ignore
               (Costmodel.Cost.sweep
                  ~port_counts:[ 8; 16; 24; 48; 96; 144; 192; 384 ])));
    ]

(* ---- ablation: SS_1+SS_2 split vs one combined switch ----

   The split exists for transparency, not speed: a single switch could
   fold the VLAN translation into every forwarding rule.  This measures
   what the split costs per packet (three dataplane passes vs one) and
   what the combined design pays instead (a rule-set that entangles the
   VLAN mapping with policy - 2x rules here, O(ports x policy) in
   general). *)

let ablation_tests =
  let engine = Simnet.Engine.create () in
  let map = Harmless.Port_map.make ~access_ports:[ 0; 1; 2; 3 ] () in
  (* Split: SS_1 (translator) + SS_2 (eth_dst forwarding). *)
  let server = Harmless.Server.build engine ~nics:1 ~ss2:"ab-ss2" [ ("ab", map) ] in
  let ss1 = server.Harmless.Server.ss1s.(0) and ss2 = server.Harmless.Server.ss2 in
  for i = 0 to 3 do
    Softswitch.Soft_switch.handle_message ss2
      (Openflow.Of_message.Flow_mod
         (Openflow.Of_message.add_flow
            ~match_:Openflow.Of_match.(any |> eth_dst (mac (i + 1)))
            [ Openflow.Flow_entry.Apply_actions [ Openflow.Of_action.output i ] ]))
  done;
  (* Combined: one switch, one table entangling vid and dst. *)
  let combined =
    Softswitch.Soft_switch.create engine ~name:"ab-comb" ~ports:1
      ~miss:Softswitch.Soft_switch.Drop_on_miss ()
  in
  for src = 0 to 3 do
    for dst = 0 to 3 do
      if src <> dst then
        Softswitch.Soft_switch.handle_message combined
          (Openflow.Of_message.Flow_mod
             (Openflow.Of_message.add_flow
                ~match_:
                  Openflow.Of_match.(
                    any |> vid (101 + src) |> eth_dst (mac (dst + 1)))
                [
                  Openflow.Flow_entry.Apply_actions
                    [
                      Openflow.Of_action.Set_vlan_vid (101 + dst);
                      Openflow.Of_action.Output Openflow.Of_action.In_port;
                    ];
                ]))
    done
  done;
  let tagged =
    Netpkt.Packet.udp
      ~vlans:[ Netpkt.Vlan.make 101 ]
      ~dst:(mac 2) ~src:(mac 1) ~ip_src:(ip "10.0.0.1") ~ip_dst:(ip "10.0.0.2")
      ~src_port:1 ~dst_port:2 "x"
  in
  let untagged = match Netpkt.Packet.pop_vlan tagged with Some (_, p) -> p | None -> tagged in
  Test.make_grouped ~name:"ablation"
    [
      Test.make ~name:"split-3-passes"
        (Staged.stage (fun () ->
             ignore (Softswitch.Soft_switch.process_direct ss1 ~now_ns:0 ~in_port:0 tagged);
             ignore (Softswitch.Soft_switch.process_direct ss2 ~now_ns:0 ~in_port:0 untagged);
             ignore (Softswitch.Soft_switch.process_direct ss1 ~now_ns:0 ~in_port:2 untagged)));
      Test.make ~name:"combined-1-pass"
        (Staged.stage (fun () ->
             ignore
               (Softswitch.Soft_switch.process_direct combined ~now_ns:0 ~in_port:0 tagged)));
    ]

(* ---- wire codec and meters ---- *)

let codec_tests =
  let fm =
    Openflow.Of_message.Flow_mod
      (Openflow.Of_message.add_flow
         ~match_:
           Openflow.Of_match.(
             any |> eth_type 0x0800
             |> ip_dst (Netpkt.Ipv4_addr.Prefix.of_string "10.0.0.0/24"))
         [
           Openflow.Flow_entry.Apply_actions
             [ Openflow.Of_action.Set_vlan_vid 101; Openflow.Of_action.output 3 ];
         ])
  in
  let frame = Openflow.Of_codec.encode fm in
  Test.make_grouped ~name:"codec"
    [
      Test.make ~name:"encode-flow-mod"
        (Staged.stage (fun () -> ignore (Openflow.Of_codec.encode fm)));
      Test.make ~name:"decode-flow-mod"
        (Staged.stage (fun () -> ignore (Openflow.Of_codec.decode frame)));
    ]

let meter_tests =
  let meters = Openflow.Meter_table.create () in
  Openflow.Meter_table.add meters ~id:1
    { Openflow.Meter_table.rate_kbps = 1_000_000; burst_kb = 1000 };
  let clock = ref 0 in
  Test.make_grouped ~name:"meter"
    [
      Test.make ~name:"token-bucket-apply"
        (Staged.stage (fun () ->
             clock := !clock + 1000;
             ignore (Openflow.Meter_table.apply meters ~id:1 ~now_ns:!clock ~bytes:1500)));
    ]

(* ---- trace/* : the observability tax ----

   The pair prices the tracing hook both ways: "emit-noop" is the
   instrumented-site idiom with no recorder installed (one ref read, no
   allocation — see the matching no-alloc test), "emit-collector" is
   the same hop landing in a recorder (including the install/uninstall
   ref writes the closure needs to leave no recorder behind between
   tests). *)

let trace_tests =
  let pkt =
    Netpkt.Packet.udp ~dst:(mac 2) ~src:(mac 1) ~ip_src:(ip "10.0.0.1")
      ~ip_dst:(ip "10.0.0.2") ~src_port:1 ~dst_port:2 "x"
  in
  let recorder = Telemetry.Trace.create () in
  let emitted = ref 0 in
  Test.make_grouped ~name:"trace"
    [
      Test.make ~name:"emit-noop"
        (Staged.stage (fun () ->
             if Telemetry.Trace.enabled () then
               Telemetry.Trace.emit ~ts_ns:0 ~component:"bench"
                 ~layer:Telemetry.Trace.Host ~stage:"noop" pkt));
      Test.make ~name:"emit-collector"
        (Staged.stage (fun () ->
             Telemetry.Trace.install recorder;
             Telemetry.Trace.emit ~ts_ns:0 ~component:"bench"
               ~layer:Telemetry.Trace.Host ~stage:"sunk" pkt;
             Telemetry.Trace.uninstall recorder;
             incr emitted;
             (* keep the accumulator bounded over millions of runs *)
             if !emitted land 4095 = 0 then Telemetry.Trace.clear recorder));
    ]

(* ---- flows/* : the sampled traffic observability plane ----

   "observe-skip" is the per-packet tax every switch pays when the
   packet is NOT sampled — the line the zero-overhead guard watches
   (words/run must stay 0; the HLL register max is the only work).
   "observe-sample" pays the full sampled path at rate 1: flow key,
   count-min and top-k updates, ring write.  "flow-hash" prices the
   5-tuple hash on its own, and "merge-fabric" is one collector tick
   folding four pre-fed switches into the fabric view. *)

let flows_tests =
  let flow_pkt i =
    Netpkt.Packet.udp ~dst:(mac 0x202) ~src:(mac 0x201)
      ~ip_src:(ip "10.2.0.1") ~ip_dst:(ip "10.2.0.2")
      ~src_port:(1000 + (i land 0xff)) ~dst_port:80 "bench"
  in
  let skip =
    Softswitch.Flowrec.create
      ~config:{ Softswitch.Flowrec.default_config with rate = max_int }
      ()
  in
  let sample =
    Softswitch.Flowrec.create
      ~config:{ Softswitch.Flowrec.default_config with rate = 1 }
      ()
  in
  let p0 = flow_pkt 0 in
  let fc = Sdnctl.Flow_collector.create (Simnet.Engine.create ()) in
  let () =
    for s = 1 to 4 do
      let r =
        Softswitch.Flowrec.create ~config:(Sdnctl.Flow_collector.config fc) ()
      in
      Sdnctl.Flow_collector.attach fc ~name:(Printf.sprintf "sw%d" s) r;
      for i = 1 to 1024 do
        Softswitch.Flowrec.observe r ~now_ns:i ~in_port:1 (flow_pkt (i * s))
      done
    done
  in
  Test.make_grouped ~name:"flows"
    [
      Test.make ~name:"observe-skip"
        (Staged.stage (fun () ->
             Softswitch.Flowrec.observe skip ~now_ns:0 ~in_port:1 p0));
      Test.make ~name:"observe-sample"
        (Staged.stage (fun () ->
             Softswitch.Flowrec.observe sample ~now_ns:0 ~in_port:1 p0));
      Test.make ~name:"flow-hash"
        (Staged.stage (fun () -> ignore (Netpkt.Packet.flow_hash ~seed:0 p0)));
      Test.make ~name:"merge-fabric"
        (Staged.stage (fun () -> Sdnctl.Flow_collector.merge_now fc));
    ]

(* ---- harness ---- *)

(* ---- fuzz/* : conformance-checking throughput ----

   How fast the differential fuzzer grinds scenarios (generate, run
   through the oracle plus every backend, compare) and how fast the
   codec fuzzer pushes frames through the totality/fixpoint contract.
   CI multiplies these into a fuzz-cases/sec budget. *)

let fuzz_tests =
  let seed = ref 0 in
  let rng = Simnet.Rng.create 42 in
  Test.make_grouped ~name:"fuzz"
    [
      Test.make ~name:"differential-case"
        (Staged.stage (fun () ->
             incr seed;
             ignore (Check.Differential.check_case ~seed:!seed)));
      Test.make ~name:"codec-case"
        (Staged.stage (fun () ->
             let frame =
               Openflow.Of_codec.encode (Check.Codec_fuzz.gen_valid_message rng)
             in
             ignore (Check.Codec_fuzz.check_frame frame)));
    ]

(* ---- policy/* : the NetKAT-lite compiler and its tables ----

   "compile-gateway" is the whole pipeline — compose the four resident
   apps, build the FDD, extract and minimize the single table — i.e. the
   controller-side cost of a config push.  The lookup benches then price
   that composed table on each dataplane backend, the companion to
   lookup/* for policy-generated (match-heterogeneous) rules rather than
   synthetic eth_dst ladders. *)

let policy_tests =
  let g = Sdnctl.Gateway.default () in
  let pol = Sdnctl.Gateway.policy g in
  let compiled_msgs = Policy.Compile.messages (Policy.Compile.compile pol) in
  let mk_lookup (name, create) =
    let pipeline = Openflow.Pipeline.create ~num_tables:1 () in
    let dp = create pipeline in
    List.iter
      (fun msg -> ignore (Openflow.Pipeline.apply pipeline ~now_ns:0 msg))
      compiled_msgs;
    let packets =
      [|
        (* metered subscriber band (meter + eth_dst product rules) *)
        Netpkt.Packet.udp ~dst:(mac 0x102) ~src:(mac 0x101)
          ~ip_src:(ip "10.1.0.1") ~ip_dst:(ip "10.1.0.2") ~src_port:4000
          ~dst_port:53 "x";
        (* vip rule into the select group *)
        Netpkt.Packet.udp ~dst:(mac 0x310) ~src:(mac 0x103)
          ~ip_src:(ip "10.1.0.3") ~ip_dst:(ip "10.3.0.10") ~src_port:4000
          ~dst_port:80 "x";
        (* plain L2 fallback band *)
        Netpkt.Packet.udp ~dst:(mac 0x104) ~src:(mac 0x103)
          ~ip_src:(ip "10.1.0.3") ~ip_dst:(ip "10.1.0.4") ~src_port:4000
          ~dst_port:53 "x";
      |]
    in
    let in_ports = [| 0; 2; 2 |] in
    let i = ref 0 in
    Test.make
      ~name:(Printf.sprintf "lookup-%s" name)
      (Staged.stage (fun () ->
           let k = !i mod 3 in
           incr i;
           ignore
             (dp.Softswitch.Dataplane.process ~now_ns:0 ~in_port:in_ports.(k)
                packets.(k))))
  in
  Test.make_grouped ~name:"policy"
    (Test.make ~name:"compile-gateway"
       (Staged.stage (fun () -> ignore (Policy.Compile.compile pol)))
    :: List.map mk_lookup Softswitch.Backends.all)

let all_tests =
  [
    lookup_tests;
    translator_tests;
    pmd_tests;
    engine_tests;
    legacy_tests;
    e2e_tests;
    wire_tests;
    table_tests;
    mgmt_tests;
    cost_tests;
    codec_tests;
    meter_tests;
    ablation_tests;
    trace_tests;
    flows_tests;
    fuzz_tests;
    policy_tests;
  ]

type row = {
  row_name : string;
  ns_per_run : float;
  minor_words_per_run : float;
  r_square : float;
  runs : int;
}

(* OLS over fewer than 3 samples is an interpolation, not a fit: the
   estimate is arbitrary and r^2 degenerates (the seed baseline carried
   r^2 values of -809 and -107349 from 2-run quick samples). *)
let min_runs = 3

(* Toolkit.Instance.minor_allocated reads (Gc.quick_stat ()).minor_words,
   which on the OCaml 5.1 runtime only advances at minor collections — every
   within-sample delta is 0 and the OLS slope degenerates to zero for every
   benchmark.  Back the measure with the Gc.minor_words external instead,
   which counts live allocation. *)
module Live_minor_words = struct
  type witness = unit

  let make () = ()
  let load () = ()
  let unload () = ()
  let get () = Gc.minor_words ()
  let label () = "live-minor-words"
  let unit () = "mnw"
end

let live_minor_words =
  Measure.instance
    (module Live_minor_words)
    (Measure.register (module Live_minor_words))

let run_benchmarks ~quota () =
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let clock = Instance.monotonic_clock in
  let alloc = live_minor_words in
  let rec measure group quota attempt =
    let cfg =
      Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) ~kde:(Some 100) ()
    in
    let raw = Benchmark.all cfg [ clock; alloc ] group in
    let shortest =
      Hashtbl.fold
        (fun _ (b : Benchmark.t) acc ->
          min acc b.Benchmark.stats.Benchmark.samples)
        raw max_int
    in
    if shortest >= min_runs || attempt >= 5 then raw
    else measure group (quota *. 2.0) (attempt + 1)
  in
  let slope tbl name =
    match Hashtbl.find_opt tbl name with
    | Some result -> (
        match Analyze.OLS.estimates result with
        | Some [ s ] -> s
        | Some _ | None -> nan)
    | None -> nan
  in
  Printf.printf "%-36s %14s %12s %10s %8s\n" "benchmark" "ns/run" "words/run"
    "r^2" "runs";
  Printf.printf "%s\n" (String.make 84 '-');
  List.concat_map
    (fun group ->
      let raw = measure group quota 1 in
      let times = Analyze.all ols clock raw in
      let allocs = Analyze.all ols alloc raw in
      let rows =
        Hashtbl.fold
          (fun name result acc ->
            let ns =
              match Analyze.OLS.estimates result with
              | Some [ slope ] -> slope
              | Some _ | None -> nan
            in
            let words = slope allocs name in
            let runs =
              match Hashtbl.find_opt raw name with
              | Some (b : Benchmark.t) -> b.Benchmark.stats.Benchmark.samples
              | None -> 0
            in
            let r_square =
              let v = Option.value (Analyze.OLS.r_square result) ~default:nan in
              if runs < min_runs || v < 0.0 || v > 1.0 then nan else v
            in
            { row_name = name; ns_per_run = ns; minor_words_per_run = words;
              r_square; runs }
            :: acc)
          times []
        |> List.sort (fun a b -> String.compare a.row_name b.row_name)
      in
      List.iter
        (fun r ->
          Printf.printf "%-36s %14.1f %12.1f %10s %8d\n" r.row_name r.ns_per_run
            r.minor_words_per_run
            (if Float.is_nan r.r_square then "-"
             else Printf.sprintf "%.4f" r.r_square)
            r.runs)
        rows;
      rows)
    all_tests

(* Machine-readable results, one object per benchmark — what the CI
   smoke job parses.  NaN has no JSON spelling, so unavailable
   estimates become null. *)
let write_json ~path ~quick rows =
  let open Telemetry.Json in
  let num f = if Float.is_nan f then Null else Float f in
  let doc =
    Obj
      [
        ("schema", Str "harmless-bench/2");
        ("quick", Bool quick);
        ( "results",
          Arr
            (List.map
               (fun r ->
                 Obj
                   [
                     ("name", Str r.row_name);
                     ("ns_per_run", num r.ns_per_run);
                     ("minor_words_per_run", num r.minor_words_per_run);
                     ("r_square", num r.r_square);
                     ("runs", Int r.runs);
                   ])
               rows) );
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string doc);
      Out_channel.output_char oc '\n');
  Printf.printf "wrote %s (%d results)\n" path (List.length rows)

let usage () =
  prerr_endline
    "usage: main.exe [--json FILE] [--force] [--append-history FILE] [--quick]\n\
     \  --json FILE            also write results as JSON (see EXPERIMENTS.md);\n\
     \                         refuses to clobber an existing FILE without --force\n\
     \  --force                overwrite an existing --json FILE\n\
     \  --append-history FILE  append this run to a JSONL bench-history store\n\
     \                         (see `harmlessctl perf`)\n\
     \  --quick                short measurement quota, skip the E1-E15 tables";
  exit 2

let () =
  let json_path = ref None
  and history_path = ref None
  and force = ref false
  and quick = ref false in
  let rec parse = function
    | [] -> ()
    | "--json" :: file :: rest ->
        json_path := Some file;
        parse rest
    | [ "--json" ] -> usage ()
    | "--append-history" :: file :: rest ->
        history_path := Some file;
        parse rest
    | [ "--append-history" ] -> usage ()
    | "--force" :: rest ->
        force := true;
        parse rest
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* Fail before the (minutes-long) measurement, not after it. *)
  (match !json_path with
  | Some path when Sys.file_exists path && not !force ->
      Printf.eprintf
        "error: %s exists; pass --force to overwrite it (or --append-history \
         to keep a trajectory)\n"
        path;
      exit 2
  | Some _ | None -> ());
  print_endline "== Bechamel microbenchmarks ==";
  let rows = run_benchmarks ~quota:(if !quick then 0.02 else 0.3) () in
  print_newline ();
  (match !json_path with
  | Some path -> write_json ~path ~quick:!quick rows
  | None -> ());
  (match !history_path with
  | Some path ->
      let snapshot =
        {
          Telemetry.Bench_history.quick = !quick;
          label = "";
          rows =
            List.map
              (fun r ->
                {
                  Telemetry.Bench_history.name = r.row_name;
                  ns_per_run =
                    (if Float.is_nan r.ns_per_run then None else Some r.ns_per_run);
                  minor_words_per_run =
                    (if Float.is_nan r.minor_words_per_run then None
                     else Some r.minor_words_per_run);
                  r_square =
                    (if Float.is_nan r.r_square then None else Some r.r_square);
                  runs = r.runs;
                })
              rows;
        }
      in
      Telemetry.Bench_history.append ~path snapshot;
      Printf.printf "appended %d results to %s\n" (List.length rows) path
  | None -> ());
  if !quick then ()
  else begin
  print_endline "== Experiment tables (E1-E15) ==";
  ignore (Experiments_lib.E1_walkthrough.run ());
  ignore (Experiments_lib.E2_throughput.run ());
  ignore (Experiments_lib.E3_latency.run ());
  ignore (Experiments_lib.E4_cost.run ());
  ignore (Experiments_lib.E5_dataplane.run ());
  ignore (Experiments_lib.E6_load_balancer.run ());
  ignore (Experiments_lib.E7_dmz.run ());
  ignore (Experiments_lib.E8_parental_control.run ());
  ignore (Experiments_lib.E9_transparency.run ());
  ignore (Experiments_lib.E10_mgmt.run ());
  ignore (Experiments_lib.E11_scaleout.run ());
  ignore (Experiments_lib.E12_rate_limit.run ());
  ignore (Experiments_lib.E13_failover.run ());
  ignore (Experiments_lib.E14_tcp.run ());
  ignore (Experiments_lib.E15_oversubscription.run ())
  end
