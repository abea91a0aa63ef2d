(* The memory-telemetry plane: the guarded recorder's zero-cost-when-off
   contract, GC time series and alloc-rate alerting, engine queue
   telemetry, and the alloc axis of the bench-regression gate. *)

open Telemetry

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let check_contains what ~needle hay =
  if not (contains hay needle) then
    Alcotest.failf "%s: %S not found in:\n%s" what needle hay

let words () = int_of_float (Gc.minor_words ())

let test_pkt =
  Netpkt.Packet.udp
    ~dst:(Netpkt.Mac_addr.make_local 2)
    ~src:(Netpkt.Mac_addr.make_local 1)
    ~ip_src:(Netpkt.Ipv4_addr.of_string "10.8.0.1")
    ~ip_dst:(Netpkt.Ipv4_addr.of_string "10.8.0.2")
    ~src_port:1 ~dst_port:2 "x"

(* ---- the disabled fast path must cost exactly nothing ---- *)

let zero_alloc_tests =
  [
    tc "guarded no-op Trace.emit allocates exactly zero minor words"
      (fun () ->
        check Alcotest.bool "no recorder" false (Trace.enabled ());
        let emit_guarded () =
          if Trace.enabled () then
            Trace.emit ~ts_ns:0 ~component:"memtel" ~layer:Trace.Host
              ~stage:"noop" test_pkt
        in
        emit_guarded ();
        let before = words () in
        for _ = 1 to 10_000 do
          emit_guarded ()
        done;
        check Alcotest.int "minor words delta over 10k emits" 0
          (words () - before));
  ]

(* ---- GC series: deterministic observe feed, rate, alerting ---- *)

let ms = Simnet.Sim_time.ms

let gcstats_tests =
  [
    tc "observe feeds the series and alloc_rate reads them back" (fun () ->
        let g = Gcstats.create () in
        let feed ts_ns allocated =
          Gcstats.observe g ~ts_ns ~minor_collections:1 ~major_collections:0
            ~promoted_words:10.0 ~heap_words:50_000
            ~allocated_words:allocated
        in
        feed 0 0.0;
        feed 1_000_000_000 1_000_000.0;
        check Alcotest.int "samples" 2 (Gcstats.samples g);
        (match
           Gcstats.alloc_rate g ~now_ns:1_000_000_000 ~window:2_000_000_000
         with
        | None -> Alcotest.fail "no rate"
        | Some r ->
            check (Alcotest.float 1.0) "1e6 words over 1 s" 1_000_000.0 r);
        check Alcotest.int "allocated series sees both points" 2
          (Timeseries.length (Gcstats.allocated_words_series g));
        let panel =
          Gcstats.panel g ~now_ns:1_000_000_000 ~window:2_000_000_000
        in
        check_contains "panel" ~needle:"gc: 2 samples" panel;
        check_contains "panel rate" ~needle:"1.0Mw/s" panel);
    tc "live sampling records monotone allocated-words" (fun () ->
        let g = Gcstats.create () in
        Gcstats.sample g ~ts_ns:0;
        ignore (Sys.opaque_identity (Array.make 1000 0));
        Gcstats.sample g ~ts_ns:1000;
        match Timeseries.to_list (Gcstats.allocated_words_series g) with
        | [ (_, a); (_, b) ] ->
            check Alcotest.bool "allocation counter grew" true (b > a)
        | pts -> Alcotest.failf "expected 2 points, got %d" (List.length pts));
    tc "alloc-rate rule walks ok -> pending -> firing -> resolved" (fun () ->
        let g = Gcstats.create () in
        let alerts = Alert.create () in
        Gcstats.add_alloc_rate_rule g alerts ~name:"memtel-alloc-rate"
          ~for_:(ms 2) ~words_per_second:1000.0 ~window:(ms 2) ();
        check (Alcotest.list Alcotest.string) "registered"
          [ "memtel-alloc-rate" ] (Alert.rules alerts);
        let feed ts_ns allocated =
          Gcstats.observe g ~ts_ns ~minor_collections:0 ~major_collections:0
            ~promoted_words:0.0 ~heap_words:1000 ~allocated_words:allocated
        in
        let state_at () =
          match Alert.state alerts "memtel-alloc-rate" with
          | Alert.Ok -> "ok"
          | Alert.Pending _ -> "pending"
          | Alert.Firing _ -> "firing"
        in
        (* a sustained 1e8 w/s burn, then flat *)
        feed 0 0.0;
        Alert.eval alerts ~now_ns:0;
        check Alcotest.string "quiet start" "ok" (state_at ());
        feed (ms 1) 100_000.0;
        Alert.eval alerts ~now_ns:(ms 1);
        check Alcotest.string "breach enters pending" "pending" (state_at ());
        feed (ms 2) 200_000.0;
        Alert.eval alerts ~now_ns:(ms 2);
        feed (ms 3) 300_000.0;
        Alert.eval alerts ~now_ns:(ms 3);
        check Alcotest.string "held past for_ fires" "firing" (state_at ());
        (* allocation goes flat: the windowed rate collapses to zero *)
        feed (ms 5) 300_000.0;
        Alert.eval alerts ~now_ns:(ms 5);
        feed (ms 7) 300_000.0;
        Alert.eval alerts ~now_ns:(ms 7);
        check Alcotest.string "flat allocation resolves" "ok" (state_at ());
        check
          (Alcotest.list Alcotest.string)
          "transition golden"
          [ "ok->pending"; "pending->firing"; "firing->ok" ]
          (List.map
             (fun (t : Alert.transition) ->
               t.Alert.from_state ^ "->" ^ t.Alert.to_state)
             (Alert.log alerts));
        check Alcotest.int "one closed breach window" 1
          (List.length (Alert.breaches alerts "memtel-alloc-rate")));
  ]

(* ---- engine queue-depth and scheduling-lag series ---- *)

let engine_telemetry_tests =
  [
    tc "bursty workload shows up in depth and lag series" (fun () ->
        let engine = Simnet.Engine.create () in
        check Alcotest.bool "off by default" true
          (Simnet.Engine.queue_depth_series engine = None);
        Simnet.Engine.enable_telemetry ~sample_every:1 engine;
        (* every ms, a burst of 8 immediate events; the queue piles up
           at each burst and drains before the next *)
        let stop = Simnet.Sim_time.of_ns (ms 10) in
        Simnet.Engine.schedule_every engine (ms 1) (fun () ->
            for _ = 1 to 8 do
              Simnet.Engine.schedule_after engine 0 (fun () -> ())
            done;
            Simnet.Sim_time.( < ) (Simnet.Engine.now engine) stop);
        Simnet.Engine.run engine ~until:stop;
        let depth =
          match Simnet.Engine.queue_depth_series engine with
          | Some s -> s
          | None -> Alcotest.fail "no depth series"
        in
        let lag =
          match Simnet.Engine.scheduling_lag_series engine with
          | Some s -> s
          | None -> Alcotest.fail "no lag series"
        in
        let depths = List.map snd (Timeseries.to_list depth) in
        let lags = List.map snd (Timeseries.to_list lag) in
        check Alcotest.bool "sampled every dispatch" true
          (List.length depths >= 80);
        check Alcotest.bool "burst depth observed" true
          (List.exists (fun d -> d >= 7.0) depths);
        check Alcotest.bool "drained between bursts" true
          (List.exists (fun d -> d = 0.0) depths);
        check Alcotest.bool "burst events have zero lag" true
          (List.exists (fun l -> l = 0.0) lags);
        check Alcotest.bool "tick events jump a full period" true
          (List.exists (fun l -> l >= float_of_int (ms 1)) lags);
        (* the sampled gauges ride publish_metrics *)
        let registry = Registry.create () in
        Simnet.Engine.publish_metrics ~registry engine;
        let rendered = Registry.to_prometheus registry in
        check_contains "depth gauge" ~needle:"sim_queue_depth_sampled" rendered;
        check_contains "lag gauge" ~needle:"sim_sched_lag_ns" rendered);
    tc "sample_every thins the series" (fun () ->
        let engine = Simnet.Engine.create () in
        Simnet.Engine.enable_telemetry ~sample_every:4 engine;
        for i = 1 to 100 do
          Simnet.Engine.schedule_after engine i (fun () -> ())
        done;
        Simnet.Engine.run engine;
        match Simnet.Engine.queue_depth_series engine with
        | None -> Alcotest.fail "no series"
        | Some s ->
            check Alcotest.int "one sample per 4 events" 25
              (Timeseries.length s));
  ]

(* ---- the alloc axis of the bench-regression gate ---- *)

let row ?ns ?words name : Bench_history.row =
  { Bench_history.name; ns_per_run = ns; minor_words_per_run = words;
    r_square = None; runs = 10 }

let snap rows : Bench_history.snapshot =
  { Bench_history.quick = false; label = ""; rows }

let cmp_of comparisons name =
  match
    List.find_opt (fun c -> c.Bench_history.cname = name) comparisons
  with
  | Some c -> c
  | None -> Alcotest.failf "no comparison row for %s" name

let bench_gate_tests =
  [
    tc "v2 snapshots round-trip words; v1 still parses as no-data"
      (fun () ->
        let v2 =
          {|{"schema":"harmless-bench/2","quick":false,"results":[
              {"name":"wire/decode-1518","ns_per_run":800.0,
               "minor_words_per_run":420.0,"r_square":0.99,"runs":20}]}|}
        in
        (match Bench_history.snapshot_of_string v2 with
        | Error e -> Alcotest.failf "v2: %s" e
        | Ok s -> (
            match s.Bench_history.rows with
            | [ r ] ->
                check
                  (Alcotest.option (Alcotest.float 1e-9))
                  "words parsed" (Some 420.0) r.Bench_history.minor_words_per_run;
                let line = Bench_history.snapshot_to_history_line s in
                check_contains "line schema"
                  ~needle:"harmless-bench-history/2" line;
                check_contains "line words" ~needle:"minor_words_per_run" line
            | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows)));
        let v1 =
          {|{"schema":"harmless-bench/1","quick":false,"results":[
              {"name":"wire/decode-1518","ns_per_run":800.0,"r_square":0.99,"runs":20}]}|}
        in
        match Bench_history.snapshot_of_string v1 with
        | Error e -> Alcotest.failf "v1: %s" e
        | Ok s ->
            check
              (Alcotest.option (Alcotest.float 1e-9))
              "v1 words are None" None
              (List.hd s.Bench_history.rows).Bench_history.minor_words_per_run);
    tc "per-axis verdicts combine into the overall verdict" (fun () ->
        let baseline =
          snap
            [
              row ~ns:100.0 ~words:100.0 "a/both-steady";
              row ~ns:100.0 ~words:100.0 "b/alloc-regressed";
              row ~ns:100.0 ~words:100.0 "c/time-regressed-alloc-improved";
              row ~ns:100.0 "d/no-alloc-data";
              row ~ns:100.0 ~words:100.0 "e/alloc-improved";
            ]
        in
        let current =
          snap
            [
              row ~ns:102.0 ~words:104.0 "a/both-steady";
              row ~ns:102.0 ~words:200.0 "b/alloc-regressed";
              row ~ns:300.0 ~words:50.0 "c/time-regressed-alloc-improved";
              row ~ns:102.0 "d/no-alloc-data";
              row ~ns:102.0 ~words:50.0 "e/alloc-improved";
            ]
        in
        let d = Bench_history.diff ~baseline ~current () in
        let overall name = (cmp_of d name).Bench_history.cverdict in
        check Alcotest.bool "steady stays steady" true
          (overall "a/both-steady" = Bench_history.Steady);
        check Alcotest.bool "alloc regression alone gates" true
          (overall "b/alloc-regressed" = Bench_history.Regressed);
        check Alcotest.bool "time regression wins over alloc improvement" true
          (overall "c/time-regressed-alloc-improved" = Bench_history.Regressed);
        check Alcotest.bool "missing alloc data never gates" true
          (overall "d/no-alloc-data" = Bench_history.Steady);
        check Alcotest.bool "alloc improvement surfaces" true
          (overall "e/alloc-improved" = Bench_history.Improved);
        let b = cmp_of d "b/alloc-regressed" in
        check Alcotest.bool "time axis itself steady" true
          (b.Bench_history.time_verdict = Bench_history.Steady);
        check Alcotest.bool "alloc axis regressed" true
          (b.Bench_history.alloc_verdict = Bench_history.Regressed);
        check
          (Alcotest.option (Alcotest.float 1e-9))
          "words ratio" (Some 2.0) b.Bench_history.words_ratio);
    tc "doubled decode allocation trips the gate like a slowdown" (fun () ->
        let baseline =
          snap
            [
              row ~ns:800.0 ~words:420.0 "wire/decode-1518";
              row ~ns:100.0 ~words:50.0 "wire/encode-1518";
            ]
        in
        let doctored =
          snap
            [
              row ~ns:800.0 ~words:840.0 "wire/decode-1518";
              row ~ns:100.0 ~words:50.0 "wire/encode-1518";
            ]
        in
        (* both threshold presets catch a 2x allocation step — the same
           condition `harmlessctl perf check` exits 3 on *)
        List.iter
          (fun thresholds ->
            let d =
              Bench_history.diff ~thresholds ~baseline ~current:doctored ()
            in
            let regs = Bench_history.regressions d in
            check Alcotest.int "exactly the doctored bench" 1
              (List.length regs);
            check Alcotest.string "which one" "wire/decode-1518"
              (List.hd regs).Bench_history.cname)
          [ Bench_history.default_thresholds; Bench_history.quick_tolerant ];
        let table =
          Bench_history.render_table
            (Bench_history.diff ~baseline ~current:doctored ())
        in
        check_contains "axis-annotated verdict" ~needle:"REGRESSED(alloc)"
          table;
        check_contains "summary" ~needle:"1 regressed" table;
        (* and the clean run stays clean *)
        check Alcotest.int "no false positive" 0
          (List.length
             (Bench_history.regressions
                (Bench_history.diff ~baseline ~current:baseline ()))));
  ]

let suite =
  [
    ("memtel_zero_alloc", zero_alloc_tests);
    ("memtel_gcstats", gcstats_tests);
    ("memtel_engine", engine_telemetry_tests);
    ("memtel_bench_gate", bench_gate_tests);
  ]
