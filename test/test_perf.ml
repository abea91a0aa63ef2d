(* The profiling plane: causal span derivation (the tiling invariant
   behind cost attribution), per-stage profiles, the three trace export
   formats (golden-pinned), the bench-history regression gate, and the
   deterministic perf rig with the ISSUE's 10%-attribution acceptance
   bound. *)

open Telemetry

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let prop name ?(count = 200) gen ~print f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen f)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ---- a hand-authored HARMLESS-ish walk: host -> legacy (tag) ->
   soft switch -> host, with wire gaps between the visits ---- *)

let hop ~seq ~ts ~component ~layer ~stage ?port ?(cycles = 0) ?(detail = "") ()
    : Trace.hop =
  {
    Trace.seq;
    ts_ns = ts;
    component;
    layer;
    stage;
    port;
    trace_key = lazy 48879;
    packet = lazy "icmp h0->h1";
    bytes = 64;
    cycles;
    detail;
  }

let walk_hops =
  [
    hop ~seq:1 ~ts:0 ~component:"h0" ~layer:Trace.Host ~stage:"tx" ();
    hop ~seq:2 ~ts:1000 ~component:"legacy0" ~layer:Trace.Legacy
      ~stage:"ingress" ~port:1 ~cycles:90 ();
    hop ~seq:3 ~ts:1400 ~component:"legacy0" ~layer:Trace.Legacy
      ~stage:"tag_push" ~port:5 ~cycles:12 ~detail:"vlan 101" ();
    hop ~seq:4 ~ts:2600 ~component:"sw-ss1" ~layer:Trace.Switch
      ~stage:"pipeline" ~port:0 ~cycles:300 ();
    hop ~seq:5 ~ts:4100 ~component:"h1" ~layer:Trace.Host ~stage:"rx" ();
  ]

let walk = { Trace.key = 48879; hops = walk_hops }

(* Leaves of a span forest: spans no other span names as parent. *)
let leaves spans =
  let parents = Hashtbl.create 16 in
  List.iter
    (fun (s : Span.t) ->
      match s.Span.parent with
      | Some p -> Hashtbl.replace parents p ()
      | None -> ())
    spans;
  List.filter (fun (s : Span.t) -> not (Hashtbl.mem parents s.Span.id)) spans

let span_tests =
  [
    tc "stage + transit spans exactly tile the packet span" (fun () ->
        match Span.of_trace walk with
        | [] -> Alcotest.fail "no spans"
        | root :: _ as spans ->
            check Alcotest.string "root is the packet span" "packet"
              root.Span.name;
            let leaf_sum =
              List.fold_left
                (fun acc s -> acc + Span.duration_ns s)
                0 (leaves spans)
            in
            check Alcotest.int "leaves tile the root" (Span.duration_ns root)
              leaf_sum;
            check Alcotest.int "e2e duration" 4100 (Span.duration_ns root));
    tc "span tree shape: ids, parents, visits, cycles" (fun () ->
        let spans = Span.of_trace walk in
        (* 1 root + 4 visits + 5 stages + 3 transits *)
        check Alcotest.int "span count" 13 (List.length spans);
        List.iteri
          (fun i (s : Span.t) ->
            check Alcotest.int "ids are 1-based and dense" (i + 1) s.Span.id)
          spans;
        let root = List.hd spans in
        check (Alcotest.option Alcotest.int) "root has no parent" None
          root.Span.parent;
        check Alcotest.int "root sums all modelled cycles" 402 root.Span.cycles;
        let names = List.map (fun (s : Span.t) -> s.Span.name) spans in
        check (Alcotest.list Alcotest.string) "preorder names"
          [
            "packet"; "h0"; "host.tx"; "transit:host->legacy0"; "legacy0";
            "legacy.ingress"; "legacy.tag_push"; "transit:legacy0->sw-ss1";
            "sw-ss1"; "switch.pipeline"; "transit:sw-ss1->host"; "h1";
            "host.rx";
          ]
          names);
    tc "host endpoints collapse to \"host\" in transit names" (fun () ->
        let names =
          List.map (fun (s : Span.t) -> s.Span.name) (Span.of_trace walk)
        in
        check Alcotest.bool "first transit uses the role name" true
          (List.mem "transit:host->legacy0" names);
        check Alcotest.bool "last transit uses the role name" true
          (List.mem "transit:sw-ss1->host" names);
        check Alcotest.bool "no per-host transit key" false
          (List.exists (fun n -> contains n "h0" && contains n "transit") names));
    tc "empty trace yields no spans, of_traces keeps ids unique" (fun () ->
        check Alcotest.int "empty" 0
          (List.length (Span.of_trace { Trace.key = 1; hops = [] }));
        let two = Span.of_traces [ walk; { walk with Trace.key = 7 } ] in
        let ids = List.map (fun (s : Span.t) -> s.Span.id) two in
        check Alcotest.int "all ids distinct" (List.length two)
          (List.length (List.sort_uniq compare ids)));
    prop "tiling invariant holds for arbitrary hop sequences"
      ~print:QCheck2.Print.(list (pair int int))
      QCheck2.Gen.(list_size (int_range 1 20) (pair (int_bound 2) (int_bound 100)))
      (fun steps ->
        let ts = ref 0 in
        let hops =
          List.mapi
            (fun i (comp, dt) ->
              ts := !ts + dt;
              hop ~seq:(i + 1) ~ts:!ts
                ~component:(String.make 1 (Char.chr (Char.code 'a' + comp)))
                ~layer:Trace.Switch ~stage:"s" ())
            steps
        in
        match Span.of_trace { Trace.key = 3; hops } with
        | [] -> false
        | root :: _ as spans ->
            let leaf_sum =
              List.fold_left
                (fun acc s -> acc + Span.duration_ns s)
                0 (leaves spans)
            in
            leaf_sum = Span.duration_ns root);
  ]

(* ---- golden renderings: one per `harmlessctl trace --format` ---- *)

let text_golden =
  "packet 0000beef: icmp h0->h1 (5 hops)\n\
  \        0ns  h0                                 host NIC out\n\
  \    1.000us  legacy0      port 1       90 cyc  ingress\n\
  \    1.400us  legacy0      port 5       12 cyc  legacy: push 802.1Q tag, up \
   the trunk  [vlan 101]\n\
  \    2.600us  sw-ss1       port 0      300 cyc  switch-pipeline\n\
  \    4.100us  h1                                 host NIC in — delivered\n"

let collapsed_golden =
  "packet;legacy0;legacy.ingress 400\n\
   packet;transit:host->legacy0 1000\n\
   packet;transit:legacy0->sw-ss1 1200\n\
   packet;transit:sw-ss1->host 1500\n"

let chrome_golden =
  {|[
 {"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"h0"}},
 {"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":2,"args":{"name":"legacy0"}},
 {"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":3,"args":{"name":"sw-ss1"}},
 {"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":4,"args":{"name":"h1"}},
 {"name":"host.tx","cat":"host","ph":"X","ts":0,"dur":0.001,"pid":1,"tid":1,"args":{"packet":"icmp h0->h1","trace_key":"0000beef","bytes":64}},
 {"name":"legacy.ingress","cat":"legacy","ph":"X","ts":1,"dur":0.0375,"pid":1,"tid":2,"args":{"packet":"icmp h0->h1","trace_key":"0000beef","bytes":64,"port":1,"cycles":90}},
 {"name":"legacy.tag_push","cat":"legacy","ph":"X","ts":1.4,"dur":0.005,"pid":1,"tid":2,"args":{"packet":"icmp h0->h1","trace_key":"0000beef","bytes":64,"port":5,"cycles":12,"detail":"vlan 101"}},
 {"name":"switch.pipeline","cat":"switch","ph":"X","ts":2.6,"dur":0.125,"pid":1,"tid":3,"args":{"packet":"icmp h0->h1","trace_key":"0000beef","bytes":64,"port":0,"cycles":300}},
 {"name":"host.rx","cat":"host","ph":"X","ts":4.1,"dur":0.001,"pid":1,"tid":4,"args":{"packet":"icmp h0->h1","trace_key":"0000beef","bytes":64}},
 {"name":"packet","cat":"packet","ph":"b","ts":0,"pid":1,"tid":1,"id":"0x0000beef","args":{"cycles":402,"detail":"icmp h0->h1"}},
 {"name":"packet","cat":"packet","ph":"e","ts":4.1,"pid":1,"tid":1,"id":"0x0000beef"},
 {"name":"h0","cat":"packet","ph":"b","ts":0,"pid":1,"tid":1,"id":"0x0000beef","args":{"component":"h0"}},
 {"name":"h0","cat":"packet","ph":"e","ts":0,"pid":1,"tid":1,"id":"0x0000beef"},
 {"name":"host.tx","cat":"packet","ph":"b","ts":0,"pid":1,"tid":1,"id":"0x0000beef","args":{"component":"h0"}},
 {"name":"host.tx","cat":"packet","ph":"e","ts":0,"pid":1,"tid":1,"id":"0x0000beef"},
 {"name":"transit:host->legacy0","cat":"packet","ph":"b","ts":0,"pid":1,"tid":1,"id":"0x0000beef"},
 {"name":"transit:host->legacy0","cat":"packet","ph":"e","ts":1,"pid":1,"tid":1,"id":"0x0000beef"},
 {"name":"legacy0","cat":"packet","ph":"b","ts":1,"pid":1,"tid":1,"id":"0x0000beef","args":{"component":"legacy0","cycles":102}},
 {"name":"legacy0","cat":"packet","ph":"e","ts":1.4,"pid":1,"tid":1,"id":"0x0000beef"},
 {"name":"legacy.ingress","cat":"packet","ph":"b","ts":1,"pid":1,"tid":1,"id":"0x0000beef","args":{"component":"legacy0","cycles":90}},
 {"name":"legacy.ingress","cat":"packet","ph":"e","ts":1.4,"pid":1,"tid":1,"id":"0x0000beef"},
 {"name":"legacy.tag_push","cat":"packet","ph":"b","ts":1.4,"pid":1,"tid":1,"id":"0x0000beef","args":{"component":"legacy0","cycles":12,"detail":"vlan 101"}},
 {"name":"legacy.tag_push","cat":"packet","ph":"e","ts":1.4,"pid":1,"tid":1,"id":"0x0000beef"},
 {"name":"transit:legacy0->sw-ss1","cat":"packet","ph":"b","ts":1.4,"pid":1,"tid":1,"id":"0x0000beef"},
 {"name":"transit:legacy0->sw-ss1","cat":"packet","ph":"e","ts":2.6,"pid":1,"tid":1,"id":"0x0000beef"},
 {"name":"sw-ss1","cat":"packet","ph":"b","ts":2.6,"pid":1,"tid":1,"id":"0x0000beef","args":{"component":"sw-ss1","cycles":300}},
 {"name":"sw-ss1","cat":"packet","ph":"e","ts":2.6,"pid":1,"tid":1,"id":"0x0000beef"},
 {"name":"switch.pipeline","cat":"packet","ph":"b","ts":2.6,"pid":1,"tid":1,"id":"0x0000beef","args":{"component":"sw-ss1","cycles":300}},
 {"name":"switch.pipeline","cat":"packet","ph":"e","ts":2.6,"pid":1,"tid":1,"id":"0x0000beef"},
 {"name":"transit:sw-ss1->host","cat":"packet","ph":"b","ts":2.6,"pid":1,"tid":1,"id":"0x0000beef"},
 {"name":"transit:sw-ss1->host","cat":"packet","ph":"e","ts":4.1,"pid":1,"tid":1,"id":"0x0000beef"},
 {"name":"h1","cat":"packet","ph":"b","ts":4.1,"pid":1,"tid":1,"id":"0x0000beef","args":{"component":"h1"}},
 {"name":"h1","cat":"packet","ph":"e","ts":4.1,"pid":1,"tid":1,"id":"0x0000beef"},
 {"name":"host.rx","cat":"packet","ph":"b","ts":4.1,"pid":1,"tid":1,"id":"0x0000beef","args":{"component":"h1"}},
 {"name":"host.rx","cat":"packet","ph":"e","ts":4.1,"pid":1,"tid":1,"id":"0x0000beef"}
]|}

let golden_tests =
  [
    tc "trace --format text (Trace_view.pp_trace)" (fun () ->
        check Alcotest.string "text golden" text_golden
          (Format.asprintf "%a"
             (Harmless.Trace_view.pp_trace Harmless.Trace_view.plain)
             walk));
    tc "trace --format chrome (Chrome_trace.to_string with spans)" (fun () ->
        check Alcotest.string "chrome golden" chrome_golden
          (Chrome_trace.to_string ~spans:(Span.of_trace walk)
             (Trace.of_hops walk_hops)));
    tc "trace --format collapsed (Span.to_collapsed)" (fun () ->
        check Alcotest.string "collapsed golden" collapsed_golden
          (Span.to_collapsed (Span.of_trace walk));
        check Alcotest.string "empty forest renders empty" ""
          (Span.to_collapsed []));
  ]

(* ---- Profile: attribution over the span leaves ---- *)

let profile_tests =
  [
    tc "per-stage p50s sum exactly to the e2e p50" (fun () ->
        let p = Profile.create () in
        Profile.record_trace p walk;
        check Alcotest.int "one trace" 1 (Profile.traces_recorded p);
        (match Profile.e2e p with
        | None -> Alcotest.fail "no e2e stats"
        | Some e ->
            check Alcotest.int "e2e p50" 4100 e.Profile.p50;
            check Alcotest.int "p50 sum attributes everything" e.Profile.p50
              (Profile.p50_sum_ns p));
        check (Alcotest.list Alcotest.string) "stages in appearance order"
          [
            "host.tx"; "transit:host->legacy0"; "legacy.ingress";
            "legacy.tag_push"; "transit:legacy0->sw-ss1"; "switch.pipeline";
            "transit:sw-ss1->host"; "host.rx";
          ]
          (Profile.stages p);
        let table = Profile.attribution_table p in
        check Alcotest.bool "table reports full attribution" true
          (contains table "attributes 100.0% of the measured e2e p50"));
    tc "cycles are sampled only where the model charges them" (fun () ->
        let p = Profile.create () in
        Profile.record_trace p walk;
        (match Profile.stage_cycles p ~stage:"legacy.ingress" with
        | Some s -> check Alcotest.int "ingress cycles p50" 90 s.Profile.p50
        | None -> Alcotest.fail "ingress cycles missing");
        check Alcotest.bool "explicit-0 stages have no cycle samples" true
          (Profile.stage_cycles p ~stage:"host.tx" = None));
    tc "a revisited component gets an occurrence-suffixed key" (fun () ->
        let hops =
          [
            hop ~seq:1 ~ts:0 ~component:"h0" ~layer:Trace.Host ~stage:"tx" ();
            hop ~seq:2 ~ts:1000 ~component:"sw-ss1" ~layer:Trace.Switch
              ~stage:"pipeline" ~cycles:100 ();
            hop ~seq:3 ~ts:2000 ~component:"legacy0" ~layer:Trace.Legacy
              ~stage:"ingress" ~cycles:90 ();
            hop ~seq:4 ~ts:3000 ~component:"sw-ss1" ~layer:Trace.Switch
              ~stage:"pipeline" ~cycles:100 ();
            hop ~seq:5 ~ts:4000 ~component:"h1" ~layer:Trace.Host ~stage:"rx" ();
          ]
        in
        let p = Profile.create () in
        Profile.record_trace p { Trace.key = 5; hops };
        let stages = Profile.stages p in
        check Alcotest.bool "first crossing" true
          (List.mem "switch.pipeline" stages);
        check Alcotest.bool "second crossing is #2" true
          (List.mem "switch.pipeline#2" stages);
        match Profile.e2e p with
        | None -> Alcotest.fail "no e2e"
        | Some e ->
            check Alcotest.int "suffixing keeps the sum exact" e.Profile.p50
              (Profile.p50_sum_ns p));
    tc "publish mirrors the distributions into registry histograms" (fun () ->
        let p = Profile.create () in
        Profile.record_trace p walk;
        let registry = Registry.create () in
        Profile.publish ~registry ~prefix:"t" p;
        let h name labels = Registry.Histogram.v ~registry ~labels name in
        check Alcotest.int "stage latency samples" 1
          (Registry.Histogram.count
             (h "t_stage_latency_ns" [ ("stage", "legacy.ingress") ]));
        check Alcotest.int "e2e samples" 1
          (Registry.Histogram.count
             (Registry.Histogram.v ~registry "t_e2e_latency_ns")));
  ]

(* ---- the perf rig: the ISSUE acceptance bounds ---- *)

let within_10pct (p : Profile.t) =
  match Profile.e2e p with
  | None -> false
  | Some e ->
      let sum = Profile.p50_sum_ns p in
      abs (sum - e.Profile.p50) * 10 <= e.Profile.p50

let perf_rig_tests =
  [
    tc "per-stage p50s attribute the measured e2e p50 within 10%" (fun () ->
        match Harmless.Perf_rig.run ~num_hosts:3 ~pings:12 () with
        | Error e -> Alcotest.failf "rig: %s" e
        | Ok r ->
            check Alcotest.bool "HARMLESS path attribution" true
              (within_10pct r.Harmless.Perf_rig.harmless);
            check Alcotest.bool "direct path attribution" true
              (within_10pct r.Harmless.Perf_rig.plain);
            (match Harmless.Perf_rig.overhead_ratio r with
            | None -> Alcotest.fail "no overhead ratio"
            | Some ratio ->
                check Alcotest.bool "the detour costs something" true
                  (ratio > 1.0));
            let table = Harmless.Perf_rig.attribution r in
            check Alcotest.bool "attribution names the tag stage" true
              (contains table "tag-push");
            check Alcotest.bool "attribution reports the ratio" true
              (contains table "overhead ratio"));
    tc "the rig is deterministic: same parameters, same report" (fun () ->
        let attr () =
          match Harmless.Perf_rig.run ~num_hosts:3 ~pings:8 () with
          | Error e -> Alcotest.failf "rig: %s" e
          | Ok r -> Harmless.Perf_rig.attribution r
        in
        check Alcotest.string "byte-identical" (attr ()) (attr ()));
  ]

(* ---- bench history: parse, store, compare, gate ---- *)

let snapshot_doc =
  {|{"schema":"harmless-bench/1","quick":true,"results":[
      {"name":"lookup/eswitch-64","ns_per_run":120.5,"r_square":0.99,"runs":40},
      {"name":"lookup/naive-64","ns_per_run":890.0,"r_square":null,"runs":40},
      {"name":"fuzz/oracle-step","ns_per_run":null,"r_square":null,"runs":0}]}|}

let snap_exn s =
  match Bench_history.snapshot_of_string s with
  | Ok s -> s
  | Error e -> Alcotest.failf "snapshot: %s" e

let row ?words name ns : Bench_history.row =
  { Bench_history.name; ns_per_run = ns; minor_words_per_run = words;
    r_square = None; runs = 10 }

let snap rows : Bench_history.snapshot =
  { Bench_history.quick = false; label = ""; rows }

let verdict : Bench_history.verdict Alcotest.testable =
  Alcotest.testable
    (fun fmt v ->
      Format.pp_print_string fmt
        (match v with
        | Bench_history.Steady -> "Steady"
        | Regressed -> "Regressed"
        | Improved -> "Improved"
        | Added -> "Added"
        | Removed -> "Removed"
        | No_data -> "No_data"))
    ( = )

let verdict_of comparisons name =
  match
    List.find_opt
      (fun c -> c.Bench_history.cname = name)
      comparisons
  with
  | Some c -> c.Bench_history.cverdict
  | None -> Alcotest.failf "no comparison row for %s" name

let bench_history_tests =
  [
    tc "snapshot parsing and history-line round trip" (fun () ->
        let s = snap_exn snapshot_doc in
        check Alcotest.bool "quick" true s.Bench_history.quick;
        check Alcotest.int "rows" 3 (List.length s.Bench_history.rows);
        (match s.Bench_history.rows with
        | first :: _ ->
            check Alcotest.string "name" "lookup/eswitch-64"
              first.Bench_history.name;
            check (Alcotest.option (Alcotest.float 1e-9)) "estimate"
              (Some 120.5) first.Bench_history.ns_per_run
        | [] -> Alcotest.fail "no rows");
        let line = Bench_history.snapshot_to_history_line ~label:"ci" s in
        let back = snap_exn line in
        check Alcotest.string "label survives" "ci" back.Bench_history.label;
        check Alcotest.int "rows survive" 3 (List.length back.Bench_history.rows);
        check Alcotest.bool "null estimate survives" true
          (List.exists
             (fun (r : Bench_history.row) -> r.Bench_history.ns_per_run = None)
             back.Bench_history.rows));
    tc "unknown schema and shapeless documents are rejected" (fun () ->
        check Alcotest.bool "bad schema" true
          (Result.is_error
             (Bench_history.snapshot_of_string
                {|{"schema":"nope/9","results":[]}|}));
        check Alcotest.bool "no results" true
          (Result.is_error
             (Bench_history.snapshot_of_string
                {|{"schema":"harmless-bench/1"}|}));
        check Alcotest.bool "row without name" true
          (Result.is_error
             (Bench_history.snapshot_of_string
                {|{"schema":"harmless-bench/1","results":[{"ns_per_run":1}]}|})));
    tc "append builds a loadable JSONL trajectory" (fun () ->
        let path = Filename.temp_file "bench_history" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Sys.remove path;
            Bench_history.append ~path ~label:"run-1" (snap_exn snapshot_doc);
            Bench_history.append ~path ~label:"run-2" (snap_exn snapshot_doc);
            (match Bench_history.load_history ~path with
            | Error e -> Alcotest.failf "history: %s" e
            | Ok entries ->
                check Alcotest.int "two entries" 2 (List.length entries);
                check
                  (Alcotest.list Alcotest.string)
                  "oldest first"
                  [ "run-1"; "run-2" ]
                  (List.map
                     (fun (s : Bench_history.snapshot) -> s.Bench_history.label)
                     entries));
            (* load_snapshot on a history file takes the newest entry *)
            match Bench_history.load_snapshot ~path with
            | Error e -> Alcotest.failf "snapshot: %s" e
            | Ok s ->
                check Alcotest.string "newest wins" "run-2"
                  s.Bench_history.label));
    tc "verdict matrix under the default thresholds" (fun () ->
        let baseline =
          snap
            [
              row "a/steady" (Some 100.0); row "b/regressed" (Some 100.0);
              row "c/improved" (Some 100.0); row "d/gone" (Some 5.0);
              row "e/no-data" None; row "f/tiny" (Some 0.5);
            ]
        in
        let current =
          snap
            [
              row "a/steady" (Some 110.0); row "b/regressed" (Some 200.0);
              row "c/improved" (Some 50.0); row "e/no-data" (Some 5.0);
              row "f/tiny" (Some 2.0); row "g/new" (Some 1.0);
            ]
        in
        let d = Bench_history.diff ~baseline ~current () in
        check (Alcotest.list Alcotest.string) "sorted by name"
          [ "a/steady"; "b/regressed"; "c/improved"; "d/gone"; "e/no-data";
            "f/tiny"; "g/new" ]
          (List.map (fun c -> c.Bench_history.cname) d);
        check verdict "within the band" Bench_history.Steady
          (verdict_of d "a/steady");
        check verdict "over the band" Bench_history.Regressed
          (verdict_of d "b/regressed");
        check verdict "under the band" Bench_history.Improved
          (verdict_of d "c/improved");
        check verdict "missing current" Bench_history.Removed
          (verdict_of d "d/gone");
        check verdict "null baseline estimate" Bench_history.No_data
          (verdict_of d "e/no-data");
        (* 0.5ns -> 2.0ns is 4x but inside the 2ns absolute floor *)
        check verdict "absolute floor absorbs sub-ns jitter"
          Bench_history.Steady (verdict_of d "f/tiny");
        check verdict "missing baseline" Bench_history.Added
          (verdict_of d "g/new");
        check Alcotest.int "one regression" 1
          (List.length (Bench_history.regressions d)));
    tc "a synthetic 2x slowdown in one stage trips the gate" (fun () ->
        let baseline =
          snap [ row "lookup/eswitch-64" (Some 1000.0); row "x/y" (Some 40.0) ]
        in
        let doctored =
          snap [ row "lookup/eswitch-64" (Some 2000.0); row "x/y" (Some 40.0) ]
        in
        (* even the --quick-tolerant thresholds catch a 2x step *)
        List.iter
          (fun thresholds ->
            let d = Bench_history.diff ~thresholds ~baseline ~current:doctored () in
            let regs = Bench_history.regressions d in
            check Alcotest.int "exactly the doctored bench" 1 (List.length regs);
            check Alcotest.string "which one" "lookup/eswitch-64"
              (List.hd regs).Bench_history.cname)
          [ Bench_history.default_thresholds; Bench_history.quick_tolerant ];
        (* and the unchanged run does not *)
        let clean =
          Bench_history.diff ~baseline ~current:baseline ()
        in
        check Alcotest.int "no false positive" 0
          (List.length (Bench_history.regressions clean)));
    tc "render_table is deterministic and flags regressions" (fun () ->
        let baseline = snap [ row "a/a" (Some 100.0) ] in
        let current = snap [ row "a/a" (Some 300.0) ] in
        let d = Bench_history.diff ~baseline ~current () in
        let t1 = Bench_history.render_table d in
        check Alcotest.string "stable output" t1 (Bench_history.render_table d);
        check Alcotest.bool "flags the regression" true
          (contains t1 "REGRESSED");
        check Alcotest.bool "summary line" true (contains t1 "1 regressed"));
  ]

(* ---- the Json parser the history store depends on ---- *)

let json_tests =
  [
    tc "numbers: int vs float classification" (fun () ->
        check Alcotest.bool "int" true (Json.of_string "42" = Ok (Json.Int 42));
        check Alcotest.bool "negative int" true
          (Json.of_string "-7" = Ok (Json.Int (-7)));
        check Alcotest.bool "decimal is float" true
          (Json.of_string "1.5" = Ok (Json.Float 1.5));
        check Alcotest.bool "exponent is float" true
          (Json.of_string "1e3" = Ok (Json.Float 1000.0)));
    tc "documents round-trip through to_string" (fun () ->
        let doc =
          Json.Obj
            [
              ("s", Json.Str "a\"b\\c\n");
              ("xs", Json.Arr [ Json.Int 1; Json.Null; Json.Bool false ]);
              ("f", Json.Float 2.5);
            ]
        in
        check Alcotest.bool "round trip" true
          (Json.of_string (Json.to_string doc) = Ok doc));
    tc "unicode escapes re-encode as UTF-8" (fun () ->
        check Alcotest.bool "2-byte" true
          (Json.of_string {|"é"|} = Ok (Json.Str "\xc3\xa9"));
        check Alcotest.bool "3-byte" true
          (Json.of_string {|"€"|} = Ok (Json.Str "\xe2\x82\xac")));
    tc "malformed input is an error, not an exception" (fun () ->
        List.iter
          (fun s ->
            check Alcotest.bool s true (Result.is_error (Json.of_string s)))
          [ "{"; "[1,]"; "{\"a\":}"; "1 2"; "nul"; "\"open"; "" ]);
    tc "accessors are shallow and shape-checked" (fun () ->
        let doc = Json.Obj [ ("n", Json.Int 3); ("s", Json.Str "x") ] in
        check (Alcotest.option Alcotest.int) "int member" (Some 3)
          (Option.bind (Json.member "n" doc) Json.to_int_opt);
        check (Alcotest.option Alcotest.int) "wrong shape" None
          (Option.bind (Json.member "s" doc) Json.to_int_opt);
        check (Alcotest.option Alcotest.int) "missing" None
          (Option.bind (Json.member "z" doc) Json.to_int_opt));
  ]

(* ---- surfaces: chaos stage SLIs and the dashboard frame ---- *)

let surface_tests =
  [
    tc "chaos reports recovery-probe stage SLIs" (fun () ->
        Registry.reset Registry.default;
        let engine = Simnet.Engine.create () in
        match Harmless.Chaos.build engine ~num_hosts:3 ~seed:42 () with
        | Error e -> Alcotest.failf "build: %s" e
        | Ok rig -> (
            match
              Harmless.Chaos.run rig
                ~script:"2ms channel down\n6ms channel up\n"
                ~duration:(Simnet.Sim_time.ms 15) ()
            with
            | Error e -> Alcotest.failf "run: %s" e
            | Ok r ->
                check Alcotest.bool "stage SLIs present" true
                  (r.Harmless.Chaos.stage_slis <> []);
                List.iter
                  (fun (stage, (s : Profile.stats)) ->
                    if s.Profile.count <= 0 then
                      Alcotest.failf "stage %s has no samples" stage)
                  r.Harmless.Chaos.stage_slis;
                let rendered =
                  Format.asprintf "%a" Harmless.Chaos.pp_report r
                in
                check Alcotest.bool "report renders the SLIs" true
                  (contains rendered "recovery-probe stage SLIs")));
    tc "dashboard render_stages: empty frame, then the attribution table"
      (fun () ->
        Registry.reset Registry.default;
        match Harmless.Dashboard.demo () with
        | Error e -> Alcotest.failf "demo: %s" e
        | Ok d ->
            check Alcotest.bool "before traffic" true
              (contains
                 (Harmless.Dashboard.render_stages d)
                 "no traced traffic yet");
            Harmless.Dashboard.advance d (Simnet.Sim_time.ms 6);
            let frame = Harmless.Dashboard.render_stages d in
            check Alcotest.bool "has the table header" true
              (contains frame "stage");
            check Alcotest.bool "has the measured e2e row" true
              (contains frame "end-to-end (measured)"));
  ]

let suite =
  [
    ("perf_spans", span_tests);
    ("perf_trace_goldens", golden_tests);
    ("perf_profile", profile_tests);
    ("perf_rig", perf_rig_tests);
    ("perf_bench_history", bench_history_tests);
    ("perf_json", json_tests);
    ("perf_surfaces", surface_tests);
  ]
