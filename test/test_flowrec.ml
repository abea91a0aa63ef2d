(* The traffic observability plane end to end: deterministic 1-in-N
   sampling with scaled sketches on the switch, a zero-allocation skip
   path, the collector's fabric-wide merge feeding series and alert
   rules, the accuracy rig's pinned bounds, and rank agreement between
   the sampled top-k and the poller's exact byte ranking. *)

open Simnet
module Flowrec = Softswitch.Flowrec
module Sketch = Telemetry.Sketch
module FC = Sdnctl.Flow_collector

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let check_contains what ~needle hay =
  if not (contains ~needle hay) then
    Alcotest.failf "%s: expected %S in:\n%s" what needle hay

let ip = Netpkt.Ipv4_addr.of_string
let mac i = Netpkt.Mac_addr.make_local i

(* One UDP flow per [src] host index; same frame every call. *)
let pkt ?(src = 1) ?(sport = 4242) ?(dport = 80) () =
  Netpkt.Packet.udp ~dst:(mac 99) ~src:(mac src)
    ~ip_src:(ip (Printf.sprintf "10.0.0.%d" src))
    ~ip_dst:(ip "10.0.1.9") ~src_port:sport ~dst_port:dport "payload"

let feed t n mk =
  for i = 1 to n do
    Flowrec.observe t ~now_ns:(i * 1000) ~in_port:1 (mk i)
  done

let recorder_tests =
  [
    tc "samples exactly 1 in rate" (fun () ->
        let t =
          Flowrec.create
            ~config:{ Flowrec.default_config with rate = 4; seed = 7 }
            ()
        in
        feed t 100 (fun _ -> pkt ());
        check Alcotest.int "seen" 100 (Flowrec.seen t);
        check Alcotest.int "sampled" 25 (Flowrec.sampled t);
        let t1 = Flowrec.create ~config:{ (Flowrec.config t) with rate = 1 } () in
        feed t1 10 (fun _ -> pkt ());
        check Alcotest.int "rate 1 samples everything" 10 (Flowrec.sampled t1);
        Alcotest.check_raises "rate 0 rejected"
          (Invalid_argument "Flowrec.create: rate must be >= 1") (fun () ->
            ignore
              (Flowrec.create ~config:{ (Flowrec.config t) with rate = 0 } ())));
    tc "sampled estimates are scaled and exact for a steady flow" (fun () ->
        (* 10 identical packets at rate 2: 5 samples, each counted at
           size * 2 — the estimate lands exactly on the true bytes. *)
        let cfg = { Flowrec.default_config with rate = 2; seed = 7 } in
        let t = Flowrec.create ~config:cfg () in
        let p = pkt () in
        feed t 10 (fun _ -> p);
        let true_bytes = 10 * Netpkt.Packet.size p in
        let h = Netpkt.Packet.flow_hash ~seed:cfg.Flowrec.seed p in
        check Alcotest.int "count-min exact" true_bytes
          (Sketch.Cm.query (Flowrec.cm t) ~key:h);
        check
          Alcotest.(option (pair int int))
          "top-k exact with zero error"
          (Some (true_bytes, 0))
          (Sketch.Topk.find (Flowrec.topk t)
             (Netpkt.Packet.Flow_key.to_string (Netpkt.Packet.flow_key p))));
    tc "same seed, same stream, same sketches and records" (fun () ->
        let cfg = { Flowrec.default_config with rate = 3; seed = 11 } in
        let mk i = pkt ~src:(1 + (i mod 5)) ~sport:(1000 + (i mod 17)) () in
        let a = Flowrec.create ~config:cfg () in
        let b = Flowrec.create ~config:cfg () in
        feed a 200 mk;
        feed b 200 mk;
        check Alcotest.bool "cm equal" true
          (Sketch.Cm.equal (Flowrec.cm a) (Flowrec.cm b));
        check Alcotest.bool "hll equal" true
          (Sketch.Hll.equal (Flowrec.hll a) (Flowrec.hll b));
        check Alcotest.bool "topk equal" true
          (Sketch.Topk.equal (Flowrec.topk a) (Flowrec.topk b));
        check Alcotest.bool "records equal" true
          (Flowrec.records a = Flowrec.records b));
    tc "hll covers every packet, not just samples" (fun () ->
        let t =
          Flowrec.create
            ~config:{ Flowrec.default_config with rate = 1_000_000 }
            ()
        in
        feed t 30 (fun i -> pkt ~src:(1 + (i mod 3)) ());
        check Alcotest.int "nothing sampled" 0 (Flowrec.sampled t);
        let est = Sketch.Hll.estimate (Flowrec.hll t) in
        check Alcotest.bool "three sources seen" true
          (abs_float (est -. 3.) < 0.5));
    tc "skip path allocates nothing" (fun () ->
        let t =
          Flowrec.create
            ~config:{ Flowrec.default_config with rate = 1_000_000 }
            ()
        in
        let p = pkt () in
        (* warm up, then pin: the unsampled path must cost 0 minor words *)
        Flowrec.observe t ~now_ns:0 ~in_port:1 p;
        let before = int_of_float (Gc.minor_words ()) in
        for i = 1 to 10_000 do
          Flowrec.observe t ~now_ns:i ~in_port:1 p
        done;
        check Alcotest.int "0 words over 10k unsampled packets" 0
          (int_of_float (Gc.minor_words ()) - before));
    tc "ring keeps the newest records, oldest first" (fun () ->
        let t =
          Flowrec.create
            ~config:{ Flowrec.default_config with rate = 1; ring = 4 }
            ()
        in
        feed t 10 (fun i -> pkt ~sport:(1000 + i) ());
        let rs = Flowrec.records t in
        check Alcotest.int "capped at ring size" 4 (List.length rs);
        check
          Alcotest.(list int)
          "last four samples, oldest first"
          [ 1007; 1008; 1009; 1010 ]
          (List.map
             (fun r -> r.Flowrec.rc_key.Netpkt.Packet.Flow_key.fk_sport)
             rs));
  ]

(* ---- the collector ---- *)

let collector_tests =
  [
    tc "merge folds every recorder into one fabric view" (fun () ->
        let engine = Engine.create () in
        let cfg = { Flowrec.default_config with rate = 1; seed = 5 } in
        let c = FC.create ~config:cfg engine in
        let a = Flowrec.create ~config:cfg () in
        let b = Flowrec.create ~config:cfg () in
        FC.attach c ~name:"sw-a" a;
        FC.attach c ~name:"sw-b" b;
        let pa = pkt ~src:1 () and pb = pkt ~src:2 ~dport:443 () in
        for i = 1 to 6 do
          Flowrec.observe a ~now_ns:i ~in_port:1 pa
        done;
        for i = 1 to 4 do
          Flowrec.observe b ~now_ns:i ~in_port:1 pb
        done;
        FC.merge_now c;
        check Alcotest.int "merges" 1 (FC.merges c);
        check Alcotest.int "seen sums" 10 (FC.seen c);
        check Alcotest.int "sampled sums" 10 (FC.sampled c);
        check Alcotest.int "merged count-min answers per-switch flows"
          (6 * Netpkt.Packet.size pa)
          (Telemetry.Sketch.Cm.query (FC.merged_cm c)
             ~key:(Netpkt.Packet.flow_hash ~seed:5 pa));
        let top = FC.top c in
        check Alcotest.int "both flows ranked" 2 (List.length top);
        check Alcotest.bool "heavier flow first" true
          (match top with
          | (_, b0, _) :: (_, b1, _) :: _ -> b0 >= b1
          | _ -> false);
        check Alcotest.bool "hosts near 2" true
          (abs_float (FC.hosts c -. 2.) < 0.5);
        check Alcotest.int "series fed per merge" 1
          (Telemetry.Timeseries.length (FC.sampled_series c));
        FC.merge_now c;
        check Alcotest.int "second merge appends" 2
          (Telemetry.Timeseries.length (FC.hosts_series c)));
    tc "scheduled merges tick on the sim clock" (fun () ->
        let engine = Engine.create () in
        let c = FC.create engine in
        FC.start c ~every:(Sim_time.ms 10);
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 55));
        check Alcotest.int "one merge per tick" 5 (FC.merges c));
    tc "alert rules fire on elephants and cardinality" (fun () ->
        let engine = Engine.create () in
        let cfg = { Flowrec.default_config with rate = 1 } in
        let c = FC.create ~config:cfg engine in
        let a = Flowrec.create ~config:cfg () in
        FC.attach c ~name:"sw" a;
        let alerts = Telemetry.Alert.create () in
        FC.add_alert_rules ~elephant_bytes:100. ~max_hosts:1e6 c alerts;
        check
          Alcotest.(slist string String.compare)
          "rules registered"
          [ "elephant-flow"; "host-cardinality" ]
          (Telemetry.Alert.rules alerts);
        let p = pkt () in
        for i = 1 to 5 do
          Flowrec.observe a ~now_ns:i ~in_port:1 p
        done;
        FC.merge_now c;
        Telemetry.Alert.eval alerts ~now_ns:1_000_000;
        check
          Alcotest.(list string)
          "elephant fires, cardinality does not" [ "elephant-flow" ]
          (Telemetry.Alert.firing alerts));
    tc "render and json expose the fabric roll-up" (fun () ->
        let engine = Engine.create () in
        let cfg = { Flowrec.default_config with rate = 1 } in
        let c = FC.create ~config:cfg engine in
        let a = Flowrec.create ~config:cfg () in
        FC.attach c ~name:"sw" a;
        for i = 1 to 3 do
          Flowrec.observe a ~now_ns:i ~in_port:1 (pkt ())
        done;
        FC.merge_now c;
        let frame = FC.render c in
        check_contains "header" ~needle:"flow telemetry" frame;
        check_contains "sampling rate" ~needle:"(1-in-1)" frame;
        check_contains "flow listed" ~needle:"udp 10.0.0.1:4242>10.0.1.9:80"
          frame;
        check_contains "hosts line" ~needle:"hosts:" frame;
        let js = Telemetry.Json.to_string (FC.to_json c) in
        check_contains "json seen" ~needle:"\"seen\":3" js;
        check_contains "json top" ~needle:"udp 10.0.0.1" js);
  ]

(* ---- the accuracy rig ---- *)

let small_rig =
  {
    Harmless.Flow_rig.default_config with
    hosts = 2_000;
    mice = 60;
    elephants = 4;
    switches = 2;
    duration_ns = 200_000_000;
  }

let rig_tests =
  [
    tc "small rig clears every bound" (fun () ->
        let r = Harmless.Flow_rig.run ~config:small_rig () in
        check Alcotest.bool "verdict" true r.Harmless.Flow_rig.rp_ok;
        check (Alcotest.float 0.0) "no false-negative heavy hitters" 1.0
          r.Harmless.Flow_rig.rp_hh_recall;
        check Alcotest.bool "count-min never underestimates" true
          r.Harmless.Flow_rig.rp_cm_overestimate_ok;
        check Alcotest.bool "hll within 5%" true
          (r.Harmless.Flow_rig.rp_hll_rel_err <= 0.05);
        check_contains "report verdict" ~needle:"verdict: PASS"
          r.Harmless.Flow_rig.rp_text);
    tc "equal seeds render byte-identical reports" (fun () ->
        let a = Harmless.Flow_rig.run ~config:small_rig () in
        let b = Harmless.Flow_rig.run ~config:small_rig () in
        check Alcotest.string "same report" a.Harmless.Flow_rig.rp_text
          b.Harmless.Flow_rig.rp_text;
        let c =
          Harmless.Flow_rig.run ~config:{ small_rig with seed = 1337 } ()
        in
        check Alcotest.bool "different seed, different report" true
          (c.Harmless.Flow_rig.rp_text <> a.Harmless.Flow_rig.rp_text));
  ]

(* ---- agreement with the exact control plane ---- *)

(* The exact reference: sources by cumulative bytes in the poller's
   latest flow stats, every flow matching a /32 [ip_src] attributing its
   byte counter to that source.  Ties break on address order, so ranks
   never depend on hash-table iteration order. *)
let byte_ranking poller =
  let module OM = Openflow.Of_message in
  let module Prefix = Netpkt.Ipv4_addr.Prefix in
  let totals = Hashtbl.create 8 in
  List.iter
    (fun (s : OM.flow_stat) ->
      match s.OM.stat_match.Openflow.Of_match.ip_src with
      | Some prefix when Prefix.length prefix = 32 ->
          let src = Prefix.base prefix in
          let sum = Option.value (Hashtbl.find_opt totals src) ~default:0 in
          Hashtbl.replace totals src (sum + s.OM.stat_bytes)
      | Some _ | None -> ())
    (Sdnctl.Stats_poller.latest_flows poller);
  Hashtbl.fold (fun src b l -> (src, b) :: l) totals []
  |> List.sort (fun (ia, a) (ib, b) ->
         match Int.compare b a with
         | 0 -> Netpkt.Ipv4_addr.compare ia ib
         | c -> c)

let agreement_tests =
  [
    tc "sampled top-k ranks sources like the polled byte ranking" (fun () ->
        (* Two hosts talking 7:3 through an OpenFlow switch, with a
           rate-1 flow recorder watching it: aggregating the top-k UDP
           flows by source must rank host 0 over host 1, exactly as the
           polled flow counters do. *)
        let engine = Engine.create () in
        let d =
          match Harmless.Deployment.build_harmless engine ~num_hosts:3 () with
          | Ok d -> d
          | Error m -> failwith m
        in
        let cfg = { Flowrec.default_config with rate = 1 } in
        let fc = FC.create ~config:cfg engine in
        FC.add_switch fc (Harmless.Deployment.controller_switch d);
        let pairs =
          [
            (Harmless.Deployment.host_ip 0, Harmless.Deployment.host_ip 2);
            (Harmless.Deployment.host_ip 1, Harmless.Deployment.host_ip 2);
          ]
        in
        let mon = Sdnctl.Monitor.create ~pairs () in
        let ctrl = Sdnctl.Controller.create engine () in
        Sdnctl.Controller.add_app ctrl (Sdnctl.Monitor.app mon);
        Sdnctl.Controller.add_app ctrl (Sdnctl.Rate_limiter.table1_l2 ~num_hosts:3);
        let dpid =
          Sdnctl.Controller.attach_switch ctrl
            (Harmless.Deployment.controller_switch d)
        in
        Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 5));
        let send src n =
          let h = Harmless.Deployment.host d src in
          for i = 1 to n do
            Host.send h
              (Netpkt.Packet.udp
                 ~dst:(Harmless.Deployment.host_mac 2)
                 ~src:(Host.mac h) ~ip_src:(Host.ip h)
                 ~ip_dst:(Harmless.Deployment.host_ip 2)
                 ~src_port:(1000 + i) ~dst_port:9 "talk")
          done
        in
        send 0 7;
        send 1 3;
        Engine.run engine
          ~until:(Sim_time.add (Engine.now engine) (Sim_time.ms 20));
        Sdnctl.Monitor.poll mon ctrl;
        Engine.run engine
          ~until:(Sim_time.add (Engine.now engine) (Sim_time.ms 10));
        FC.merge_now fc;
        (* exact side *)
        let poller =
          match Sdnctl.Monitor.poller mon dpid with
          | Some p -> p
          | None -> Alcotest.fail "monitor has no poller after polling"
        in
        let exact_rank =
          List.map
            (fun (a, _) -> Netpkt.Ipv4_addr.to_string a)
            (byte_ranking poller)
        in
        (* sampled side: sum the top-k's dport-9 flows by source *)
        let bytes_of src =
          List.fold_left
            (fun acc (key, bytes, err) ->
              check Alcotest.int "no eviction error at rate 1" 0 err;
              let prefix =
                Printf.sprintf "udp %s:"
                  (Netpkt.Ipv4_addr.to_string (Harmless.Deployment.host_ip src))
              in
              if
                String.length key >= String.length prefix
                && String.sub key 0 (String.length prefix) = prefix
                && contains ~needle:":9" key
              then acc + bytes
              else acc)
            0 (FC.top fc)
        in
        let b0 = bytes_of 0 and b1 = bytes_of 1 in
        check Alcotest.bool "both sources sampled" true (b0 > 0 && b1 > 0);
        check Alcotest.bool "7 packets outweigh 3" true (b0 > b1);
        (* same frame size per packet: the byte ratio is exactly 7:3 *)
        check Alcotest.int "exact 7:3 byte ratio" (b0 * 3) (b1 * 7);
        let sampled_rank =
          List.map
            (fun (s, _) -> Netpkt.Ipv4_addr.to_string (Harmless.Deployment.host_ip s))
            (List.sort
               (fun (_, a) (_, b) -> Int.compare b a)
               [ (0, b0); (1, b1) ])
        in
        check
          Alcotest.(list string)
          "rank agreement with byte_ranking" exact_rank sampled_rank);
  ]

let dashboard_tests =
  [
    tc "dashboard flow panel renders the demo's sampled traffic" (fun () ->
        let d =
          match Harmless.Dashboard.demo () with
          | Ok d -> d
          | Error m -> failwith m
        in
        Harmless.Dashboard.advance d (Sim_time.ms 40);
        let fc = Harmless.Dashboard.flow_collector d in
        check Alcotest.bool "merges ticked" true (FC.merges fc > 0);
        check Alcotest.bool "packets observed" true (FC.seen fc > 0);
        let frame = Harmless.Dashboard.render_flows d in
        check_contains "header" ~needle:"harmless flows" frame;
        check_contains "panel" ~needle:"flow telemetry" frame;
        check_contains "hosts line" ~needle:"hosts:" frame;
        (* deterministic: a second demo advanced identically renders the
           same frame *)
        let d2 =
          match Harmless.Dashboard.demo () with
          | Ok d -> d
          | Error m -> failwith m
        in
        Harmless.Dashboard.advance d2 (Sim_time.ms 40);
        check Alcotest.string "byte-identical frame" frame
          (Harmless.Dashboard.render_flows d2));
  ]

let suite =
  [
    ("flowrec.recorder", recorder_tests);
    ("flowrec.collector", collector_tests);
    ("flowrec.rig", rig_tests);
    ("flowrec.agreement", agreement_tests);
    ("flowrec.dashboard", dashboard_tests);
  ]
