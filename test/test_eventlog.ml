(* The flight recorder and the post-mortem plane: per-stream ring
   bounds, the zero-cost disabled path, event line round-trips, the
   corr-id join with the packet tracer through the Chrome trace export,
   capture-at-finalize semantics, snapshot serialization, and the
   canary-breach root-cause golden. *)

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

let count_occurrences hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i acc =
    if i + ln > lh then acc
    else if String.sub hay i ln = needle then go (i + ln) (acc + 1)
    else go (i + 1) acc
  in
  if ln = 0 then 0 else go 0 0

let words () = int_of_float (Gc.minor_words ())

let test_pkt =
  Netpkt.Packet.udp
    ~dst:(Netpkt.Mac_addr.make_local 4)
    ~src:(Netpkt.Mac_addr.make_local 3)
    ~ip_src:(Netpkt.Ipv4_addr.of_string "10.9.0.1")
    ~ip_dst:(Netpkt.Ipv4_addr.of_string "10.9.0.2")
    ~src_port:7 ~dst_port:8 "y"

(* ---- the recorder itself ---- *)

let recorder_tests =
  [
    tc "per-stream ring wraps, keeps the newest, counts evictions"
      (fun () ->
        let retained =
          Trace.with_recorder ~stream_capacity:4 (fun r ->
              for i = 1 to 10 do
                Trace.event ~ts_ns:i ~stream:"s"
                  ~detail:(Printf.sprintf "n%d" i) "tick"
              done;
              check Alcotest.int "recorded counts evicted too" 10
                (Trace.recorded r);
              check Alcotest.int "dropped = overflow" 6 (Trace.dropped r);
              Trace.events r)
        in
        check Alcotest.int "ring retains capacity" 4 (List.length retained);
        check
          Alcotest.(list int)
          "newest survive, in order" [ 7; 8; 9; 10 ]
          (List.map (fun (e : Trace.event) -> e.Trace.seq) retained));
    tc "streams are bounded independently and merge by (ts, seq)"
      (fun () ->
        let retained =
          Trace.with_recorder ~stream_capacity:2 (fun r ->
              Trace.event ~ts_ns:5 ~stream:"b" "one";
              Trace.event ~ts_ns:1 ~stream:"a" "one";
              Trace.event ~ts_ns:9 ~stream:"a" "two";
              Trace.event ~ts_ns:3 ~stream:"a" "three";
              (* "a" wrapped (capacity 2); "b" did not. *)
              check Alcotest.int "one eviction" 1 (Trace.dropped r);
              check
                Alcotest.(list string)
                "streams sorted" [ "a"; "b" ] (Trace.streams r);
              check Alcotest.int "stream filter" 2
                (List.length (Trace.events ~stream:"a" r));
              Trace.events r)
        in
        check
          Alcotest.(list string)
          "merged (ts, seq) order" [ "three"; "one"; "two" ]
          (List.map (fun (e : Trace.event) -> e.Trace.name) retained));
    tc "min_level filters, levels order debug < info < warn < error"
      (fun () ->
        Trace.with_recorder (fun r ->
            Trace.event ~level:Trace.Debug ~ts_ns:1 ~stream:"s" "d";
            Trace.event ~level:Trace.Info ~ts_ns:2 ~stream:"s" "i";
            Trace.event ~level:Trace.Warn ~ts_ns:3 ~stream:"s" "w";
            Trace.event ~level:Trace.Error ~ts_ns:4 ~stream:"s" "e";
            check Alcotest.int "warn and up" 2
              (List.length (Trace.events ~min_level:Trace.Warn r))));
    tc "stream and name must be tokens" (fun () ->
        Trace.with_recorder (fun _ ->
            Alcotest.check_raises "space in stream"
              (Invalid_argument
                 "Trace.event: stream must be a non-empty token: \"a b\"")
              (fun () -> Trace.event ~stream:"a b" "x");
            Alcotest.check_raises "empty name"
              (Invalid_argument
                 "Trace.event: event name must be a non-empty token: \"\"")
              (fun () -> Trace.event ~stream:"s" "")));
    tc "corr_of_string is stable and never zero" (fun () ->
        let c = Trace.corr_of_string "channel:chaos-legacy-ss2" in
        check Alcotest.int "same name, same id" c
          (Trace.corr_of_string "channel:chaos-legacy-ss2");
        check Alcotest.bool "nonzero" true (c <> 0));
    tc "guarded no-op Event emit allocates exactly zero minor words"
      (fun () ->
        check Alcotest.bool "no recorder" false (Trace.enabled ());
        let emit_guarded () =
          if Trace.enabled () then Trace.event ~ts_ns:0 ~stream:"events" "noop"
        in
        emit_guarded ();
        let before = words () in
        for _ = 1 to 10_000 do
          emit_guarded ()
        done;
        check Alcotest.int "minor words delta over 10k emits" 0
          (words () - before));
    tc "event line round-trips through to_string/of_string" (fun () ->
        let retained =
          Trace.with_recorder (fun r ->
              Trace.event ~level:Trace.Warn ~ts_ns:4_200_000
                ~corr:(Trace.corr_of_string "trunk:primary")
                ~detail:"trunk:primary degrade loss=0.95" ~stream:"fault"
                "degrade";
              Trace.events r)
        in
        let e = List.hd retained in
        let line = Trace.event_to_string e in
        match Trace.event_of_string line with
        | Error msg -> Alcotest.failf "parse failed: %s (%s)" msg line
        | Ok e' ->
            check Alcotest.string "line is a fixpoint" line
              (Trace.event_to_string e');
            check Alcotest.int "corr preserved" e.Trace.corr
              e'.Trace.corr;
            check Alcotest.string "detail preserved" e.Trace.detail
              e'.Trace.detail);
  ]

(* ---- the corr-id join with the packet tracer ---- *)

let join_tests =
  [
    tc "event and hop share one trace_key through the Chrome export"
      (fun () ->
        let key = Trace.key_of_packet test_pkt in
        let out =
          Trace.with_recorder (fun r ->
              Trace.emit ~ts_ns:10 ~component:"host0" ~layer:Trace.Host
                ~stage:"tx" ~cycles:0 test_pkt;
              Trace.event ~level:Trace.Debug ~ts_ns:20 ~corr:key
                ~detail:"dpid:2 port=0" ~stream:"controller" "packet-in";
              Chrome_trace.to_string r)
        in
        let needle = Printf.sprintf "\"%08x\"" key in
        check Alcotest.int
          "trace_key appears in both the hop and the instant event" 2
          (count_occurrences out needle);
        check_contains "instant phase present" ~needle:"\"ph\":\"i\"" out;
        check_contains "per-stream pseudo thread"
          ~needle:"events:controller" out);
  ]

(* ---- capture-at-finalize and snapshot serialization ---- *)

let postmortem_tests =
  [
    tc "uneventful recording captures nothing" (fun () ->
        let snap =
          Trace.with_recorder (fun r ->
              Trace.event ~ts_ns:1 ~stream:"channel" "connect";
              Postmortem.capture ~scenario:"quiet" ~seed:1 ~captured_ns:10 r)
        in
        check Alcotest.bool "no trigger, no snapshot" true (snap = None));
    tc "capture windows events around the first trigger" (fun () ->
        let snap =
          Trace.with_recorder (fun r ->
              Trace.event ~ts_ns:1_000_000 ~stream:"channel" "connect";
              Trace.event ~ts_ns:20_000_000 ~stream:"channel" "drop";
              Trace.event ~level:Trace.Warn ~ts_ns:30_000_000
                ~corr:(Trace.corr_of_string "trunk:primary")
                ~detail:"trunk:primary down" ~stream:"fault" "down";
              Trace.event ~level:Trace.Error ~ts_ns:31_000_000
                ~corr:(Trace.corr_of_string "slo") ~detail:"slo value=0"
                ~stream:"alert" "firing";
              Postmortem.capture ~scenario:"windowed" ~seed:7
                ~captured_ns:40_000_000 r)
        in
        match snap with
        | None -> Alcotest.fail "expected a snapshot"
        | Some s ->
            check Alcotest.int "window start = trigger - 5ms" 25_000_000
              s.Postmortem.window_start_ns;
            check Alcotest.int "pre-trigger noise excluded" 2
              (List.length s.Postmortem.events);
            check Alcotest.int "one trigger each kind" 2
              (List.length s.Postmortem.triggers);
            let tl = Postmortem.analyze s in
            (match tl.Postmortem.root_cause with
            | Some e ->
                check Alcotest.string "root cause is the fault" "fault"
                  e.Trace.stream
            | None -> Alcotest.fail "expected a root cause");
            (* serialization round-trip is a fixpoint *)
            let text = Postmortem.to_string s in
            (match Postmortem.of_string text with
            | Error msg -> Alcotest.failf "snapshot parse failed: %s" msg
            | Ok s' ->
                check Alcotest.string "to_string fixpoint" text
                  (Postmortem.to_string s'));
            check_contains "render names the root cause"
              ~needle:"root cause: fault down" (Postmortem.render s));
    tc "a harmless-postmortem/1 snapshot is an Error, not an exception"
      (fun () ->
        (* The /1 span line carried begin/end word counts after the
           cycles field. *)
        let v1 =
          String.concat "\n"
            [
              "harmless-postmortem/1";
              "scenario old";
              "seed 1";
              "captured 3000";
              "window 0 3000";
              "triggers 0";
              "events 0";
              "spans 1";
              "span 1 - 00000d4d 0 3000 102 1000 1900 packet - icmp";
              "series 0";
              "";
            ]
        in
        match Postmortem.of_string v1 with
        | Ok _ -> Alcotest.fail "a /1 snapshot must not parse"
        | Error msg ->
            check_contains "names the schema it wants"
              ~needle:Postmortem.schema msg
        | exception e ->
            Alcotest.failf "of_string raised %s" (Printexc.to_string e));
  ]

(* ---- the golden: the injected fault is the timeline's root cause ---- *)

let golden_tests =
  [
    tc "canary breach post-mortem names the trunk degrade as root cause"
      (fun () ->
        match Harmless.Migration_rig.canary_breach ~seed:42 () with
        | Error msg -> Alcotest.failf "breach scenario failed: %s" msg
        | Ok br -> (
            match br.Harmless.Migration_rig.postmortem with
            | None -> Alcotest.fail "breach must capture a post-mortem"
            | Some s ->
                let tl = Postmortem.analyze s in
                (match tl.Postmortem.root_cause with
                | None -> Alcotest.fail "expected a root cause"
                | Some e ->
                    check Alcotest.string "fault stream" "fault"
                      e.Trace.stream;
                    check Alcotest.string "degrade action" "degrade"
                      e.Trace.name;
                    check_contains "the injected target"
                      ~needle:"trunk:sw0" e.Trace.detail);
                let report = Postmortem.render s in
                check_contains "causal chain reaches the rollback"
                  ~needle:"migration.rollback sw0" report;
                check_contains "causal chain reaches the fleet abort"
                  ~needle:"fleet.abort" report;
                check_contains "liveness breach on the timeline"
                  ~needle:"alert.firing probe-liveness" report));
    tc "same seed, same snapshot (modulo process-global dpids)" (fun () ->
        (* Datapath ids come from a process-global counter, so two
           in-process runs disagree on them (and on the poller corr
           derived from them); byte-for-byte identity across fresh
           processes is what CI's cmp checks.  Everything else must
           match exactly. *)
        let normalize s =
          let s =
            Str.global_replace (Str.regexp "dpid:[0-9a-f]+") "dpid:_" s
          in
          Str.global_replace
            (Str.regexp "\\(poller \\)[0-9a-f]+")
            "\\1________" s
        in
        let snap_of () =
          match Harmless.Migration_rig.canary_breach ~seed:1337 () with
          | Error msg -> Alcotest.failf "breach scenario failed: %s" msg
          | Ok br -> (
              match br.Harmless.Migration_rig.postmortem with
              | None -> Alcotest.fail "breach must capture a post-mortem"
              | Some s -> normalize (Postmortem.to_string s))
        in
        check Alcotest.string "deterministic capture" (snap_of ())
          (snap_of ()));
  ]

let suite =
  [
    ("eventlog recorder", recorder_tests);
    ("eventlog trace join", join_tests);
    ("postmortem capture", postmortem_tests);
    ("postmortem golden", golden_tests);
  ]
