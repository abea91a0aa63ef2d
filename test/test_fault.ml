(* The resilience machinery in isolation: the retry combinator, the
   fault-script parser and injector, the management fault plan, the
   keepalive/reconnect control channel and the switch fail modes. *)

open Simnet

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let prop ?(count = 200) name gen ~print f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen f)

(* ---- Retry ---- *)

let retry_tests =
  [
    tc "gives up after max_attempts and says so" (fun () ->
        let calls = ref 0 in
        let policy = Mgmt.Retry.policy ~max_attempts:4 () in
        let result =
          Mgmt.Retry.run ~policy
            ~registry:(Telemetry.Registry.create ())
            (fun () ->
              incr calls;
              Error "boom")
        in
        check Alcotest.int "tried exactly max_attempts" 4 !calls;
        match result with
        | Ok () -> Alcotest.fail "should not succeed"
        | Error msg ->
            check Alcotest.bool "error names the attempt count" true
              (contains msg "gave up after 4 attempts"));
    tc "stops retrying at the first success" (fun () ->
        let calls = ref 0 in
        let policy = Mgmt.Retry.policy ~max_attempts:5 () in
        let result =
          Mgmt.Retry.run ~policy
            ~registry:(Telemetry.Registry.create ())
            (fun () ->
              incr calls;
              if !calls < 3 then Error "flaky" else Ok !calls)
        in
        check Alcotest.(result int string) "succeeded on attempt 3" (Ok 3) result;
        check Alcotest.int "no extra calls" 3 !calls);
    tc "counts each retry in retries_total" (fun () ->
        let registry = Telemetry.Registry.create () in
        let calls = ref 0 in
        ignore
          (Mgmt.Retry.run
             ~policy:(Mgmt.Retry.policy ~max_attempts:3 ())
             ~registry ~op:"test.op"
             (fun () ->
               incr calls;
               Error "nope"));
        let counter =
          Telemetry.Registry.Counter.v ~registry
            ~labels:[ ("op", "test.op") ]
            "retries_total"
        in
        (* 3 attempts = 2 retries; the final failure is not a retry. *)
        check Alcotest.int "two retries" 2
          (Telemetry.Registry.Counter.value counter));
    tc "run_async elapses the backoff in sim time" (fun () ->
        let engine = Engine.create () in
        let policy =
          Mgmt.Retry.policy ~max_attempts:4 ~base_delay:(Sim_time.ms 10)
            ~multiplier:2.0 ~max_delay:(Sim_time.ms 15) ()
        in
        let finished = ref None in
        Mgmt.Retry.run_async engine ~policy
          ~registry:(Telemetry.Registry.create ())
          (fun () -> Error "always")
          ~on_done:(fun r -> finished := Some (r, Engine.now engine));
        Engine.run engine;
        match !finished with
        | None -> Alcotest.fail "on_done never fired"
        | Some (result, at) ->
            check Alcotest.bool "failed" true (Result.is_error result);
            (* delays: 10ms, then 20ms capped to 15, then 15 = 40ms. *)
            check Alcotest.int "backoff elapsed in sim time"
              (Sim_time.ms 40) (Sim_time.to_ns at));
    prop "backoff schedule is deterministic, nondecreasing and capped"
      QCheck2.Gen.(
        triple (int_range 1 10) (int_range 1 1_000_000) (int_range 0 4))
      ~print:(fun (n, base, m) -> Printf.sprintf "(%d,%d,%d)" n base m)
      (fun (max_attempts, base_ns, mult10) ->
        let multiplier = 1.0 +. (float_of_int mult10 /. 2.0) in
        let policy =
          Mgmt.Retry.policy ~max_attempts ~base_delay:base_ns ~multiplier
            ~max_delay:(base_ns * 64) ()
        in
        let s1 = Mgmt.Retry.backoff_schedule policy in
        let s2 = Mgmt.Retry.backoff_schedule policy in
        let nondecreasing =
          let rec go = function
            | a :: (b :: _ as rest) -> a <= b && go rest
            | [ _ ] | [] -> true
          in
          go s1
        in
        s1 = s2
        && List.length s1 = max_attempts - 1
        && nondecreasing
        && List.for_all (fun d -> d >= 0 && d <= base_ns * 64) s1);
    tc "full jitter is seeded, bounded and reproducible" (fun () ->
        let policy =
          Mgmt.Retry.policy ~max_attempts:6 ~base_delay:(Sim_time.ms 10)
            ~multiplier:2.0 ~max_delay:(Sim_time.ms 60) ~jitter:true ()
        in
        let raw = Mgmt.Retry.backoff_schedule { policy with jitter = false } in
        let j1 = Mgmt.Retry.backoff_schedule ~rng:(Rng.create 7) policy in
        let j2 = Mgmt.Retry.backoff_schedule ~rng:(Rng.create 7) policy in
        let j3 = Mgmt.Retry.backoff_schedule ~rng:(Rng.create 8) policy in
        check Alcotest.(list int) "same seed, same schedule" j1 j2;
        check Alcotest.bool "different seed, different schedule" true (j1 <> j3);
        List.iter2
          (fun jit r ->
            check Alcotest.bool "each delay drawn from [0, raw]" true
              (jit >= 0 && jit <= r))
          j1 raw;
        check
          Alcotest.(list int)
          "no rng falls back to the raw schedule" raw
          (Mgmt.Retry.backoff_schedule policy));
    tc "budget exhaustion fails fast as a deadline, not a give-up" (fun () ->
        let registry = Telemetry.Registry.create () in
        let policy =
          Mgmt.Retry.policy ~max_attempts:10 ~base_delay:(Sim_time.ms 10)
            ~multiplier:2.0 ()
        in
        (* delays 10, 20, 40… a 25 ms budget admits only the first one. *)
        let budget = Mgmt.Retry.budget (Sim_time.ms 25) in
        let calls = ref 0 in
        let result =
          Mgmt.Retry.run ~policy ~registry ~op:"mgmt.test" ~budget (fun () ->
              incr calls;
              Error "still down")
        in
        (match result with
        | Ok () -> Alcotest.fail "should not succeed"
        | Error msg ->
            check Alcotest.bool "deadline error, recognisably" true
              (Mgmt.Retry.is_deadline_error msg);
            check Alcotest.bool "not the give-up wording" false
              (contains msg "gave up"));
        check Alcotest.int "stopped before max_attempts" 2 !calls;
        check Alcotest.bool "budget marked exhausted" true
          (Mgmt.Retry.budget_exhausted budget);
        check Alcotest.int "deadline_exceeded_total counted" 1
          (Telemetry.Registry.Counter.value
             (Telemetry.Registry.Counter.v ~registry
                ~labels:[ ("op", "mgmt.test") ]
                "deadline_exceeded_total"));
        (* an ample budget keeps the per-operation give-up semantics *)
        let roomy = Mgmt.Retry.budget (Sim_time.s 10) in
        match
          Mgmt.Retry.run
            ~policy:(Mgmt.Retry.policy ~max_attempts:3 ())
            ~registry ~budget:roomy
            (fun () -> Error "still down")
        with
        | Ok () -> Alcotest.fail "should not succeed"
        | Error msg ->
            check Alcotest.bool "transient give-up preserved" true
              (contains msg "gave up after 3 attempts");
            check Alcotest.bool "not a deadline" false
              (Mgmt.Retry.is_deadline_error msg));
  ]

(* ---- Fault script parsing and the injector ---- *)

let script_tests =
  [
    tc "parse_span accepts the documented units" (fun () ->
        check
          Alcotest.(result int string)
          "20ms" (Ok (Sim_time.ms 20)) (Fault.parse_span "20ms");
        check
          Alcotest.(result int string)
          "500us" (Ok (Sim_time.us 500)) (Fault.parse_span "500us");
        check
          Alcotest.(result int string)
          "1s" (Ok (Sim_time.s 1)) (Fault.parse_span "1s");
        check
          Alcotest.(result int string)
          "100ns" (Ok (Sim_time.ns 100)) (Fault.parse_span "100ns");
        check Alcotest.bool "garbage rejected" true
          (Result.is_error (Fault.parse_span "fast"));
        check Alcotest.bool "overflow rejected, not read as 0" true
          (Result.is_error (Fault.parse_span "99999999999999999999ms")));
    tc "parse_script reads events, comments and degrade arguments" (fun () ->
        let script =
          "# a comment\n\
           20ms  channel  down\n\n\
           45ms  mgmt     flaky 2\n\
           90ms  trunk:primary  degrade loss=0.05 jitter=100us\n"
        in
        match Fault.parse_script script with
        | Error e -> Alcotest.fail e
        | Ok events ->
            check Alcotest.int "three events" 3 (List.length events);
            let e3 = List.nth events 2 in
            check Alcotest.string "target" "trunk:primary" e3.Fault.target;
            (match e3.Fault.action with
            | Fault.Degrade { loss; jitter } ->
                check (Alcotest.float 1e-9) "loss" 0.05 loss;
                check Alcotest.int "jitter" (Sim_time.us 100) jitter
            | _ -> Alcotest.fail "expected degrade"));
    tc "parse errors name the line" (fun () ->
        match Fault.parse_script "20ms channel down\nnot-a-time x down\n" with
        | Ok _ -> Alcotest.fail "accepted garbage"
        | Error msg ->
            check Alcotest.bool "line 2 named" true (contains msg "line 2"));
    tc "injector dispatches at sim time and logs unknown targets" (fun () ->
        let engine = Engine.create () in
        let injector = Fault.create engine in
        let hits = ref [] in
        Fault.register injector ~target:"thing" (fun action ->
            hits := (Sim_time.to_ns (Engine.now engine), action) :: !hits;
            Ok ());
        Fault.schedule injector
          [
            { Fault.after = Sim_time.ms 5; target = "thing"; action = Fault.Down };
            { Fault.after = Sim_time.ms 7; target = "ghost"; action = Fault.Up };
          ];
        Engine.run engine;
        check Alcotest.int "handler fired once" 1 (List.length !hits);
        check Alcotest.int "at 5ms" (Sim_time.ms 5) (fst (List.hd !hits));
        let log = Fault.applied injector in
        check Alcotest.int "both logged" 2 (List.length log);
        let ghost = List.nth log 1 in
        check Alcotest.bool "unknown target is an Error outcome" true
          (Result.is_error ghost.Fault.outcome));
    tc "duplicate target registration raises" (fun () ->
        let injector = Fault.create (Engine.create ()) in
        Fault.register injector ~target:"x" (fun _ -> Ok ());
        check Alcotest.bool "raises" true
          (match Fault.register injector ~target:"x" (fun _ -> Ok ()) with
          | () -> false
          | exception Invalid_argument _ -> true));
  ]

(* ---- Fault plan determinism ---- *)

let fault_plan_tests =
  [
    tc "equal seeds give equal failure sequences" (fun () ->
        let sequence seed =
          let plan =
            Mgmt.Fault_plan.create ~seed ~fail_probability:0.3 ()
          in
          List.init 50 (fun _ -> Mgmt.Fault_plan.should_fail plan)
        in
        check Alcotest.(list bool) "same stream" (sequence 7) (sequence 7);
        check Alcotest.bool "different seed differs somewhere" true
          (sequence 7 <> sequence 8));
    tc "fail_next forces exactly n failures" (fun () ->
        let plan = Mgmt.Fault_plan.create ~seed:1 () in
        Mgmt.Fault_plan.fail_next plan 3;
        let results =
          List.init 5 (fun _ -> Mgmt.Fault_plan.should_fail plan)
        in
        check
          Alcotest.(list bool)
          "three then clean"
          [ true; true; true; false; false ]
          results;
        check Alcotest.int "injected" 3 (Mgmt.Fault_plan.injected plan));
  ]

(* ---- Channel keepalive / reconnect ---- *)

let channel_config =
  {
    Sdnctl.Channel.default_config with
    keepalive_interval = Some (Sim_time.ms 2);
    echo_timeout = Sim_time.ms 5;
    reconnect_base = Sim_time.ms 1;
    reconnect_max = Sim_time.ms 8;
  }

let channel_rig ?(config = channel_config) () =
  let engine = Engine.create () in
  let switch =
    Softswitch.Soft_switch.create engine ~name:"sw" ~ports:2 ()
  in
  let received = ref 0 in
  let ch =
    Sdnctl.Channel.connect engine ~config ~switch
      ~to_controller:(fun _ -> incr received)
      ()
  in
  (engine, switch, ch, received)

let run_until engine ms =
  Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms ms))

let channel_tests =
  [
    tc "healthy keepalive never disconnects" (fun () ->
        let engine, switch, ch, _ = channel_rig () in
        run_until engine 40;
        check Alcotest.bool "still connected" true
          (Sdnctl.Channel.state ch = Sdnctl.Channel.Connected);
        check Alcotest.int "no reconnects" 0 (Sdnctl.Channel.reconnects ch);
        check Alcotest.bool "switch agrees" true
          (Softswitch.Soft_switch.connected switch));
    tc "echo timeout detects a blackhole and reconnect heals it" (fun () ->
        let engine, switch, ch, _ = channel_rig () in
        run_until engine 10;
        Sdnctl.Channel.set_down ch true;
        run_until engine 30;
        check Alcotest.bool "detected" true
          (Sdnctl.Channel.state ch = Sdnctl.Channel.Disconnected);
        check Alcotest.bool "switch told" false
          (Softswitch.Soft_switch.connected switch);
        Sdnctl.Channel.set_down ch false;
        run_until engine 60;
        check Alcotest.bool "healed" true
          (Sdnctl.Channel.state ch = Sdnctl.Channel.Connected);
        check Alcotest.int "one reconnect" 1 (Sdnctl.Channel.reconnects ch);
        check Alcotest.bool "switch reconnected" true
          (Softswitch.Soft_switch.connected switch));
    tc "reconnect waits for a crashed switch to restart" (fun () ->
        let engine, switch, ch, _ = channel_rig () in
        run_until engine 10;
        Softswitch.Soft_switch.crash switch;
        run_until engine 30;
        check Alcotest.bool "crash detected" true
          (Sdnctl.Channel.state ch = Sdnctl.Channel.Disconnected);
        check Alcotest.int "no premature reconnect" 0
          (Sdnctl.Channel.reconnects ch);
        Softswitch.Soft_switch.restart switch;
        run_until engine 60;
        check Alcotest.bool "reconnected after restart" true
          (Sdnctl.Channel.state ch = Sdnctl.Channel.Connected);
        check Alcotest.int "one reconnect" 1 (Sdnctl.Channel.reconnects ch));
    tc "bounded outbound queue sheds and counts" (fun () ->
        let config = { channel_config with max_in_flight = 4 } in
        let _engine, _switch, ch, _ = channel_rig ~config () in
        (* Ten sends with no engine steps: only 4 fit in flight. *)
        for i = 1 to 10 do
          ignore i;
          Sdnctl.Channel.to_switch ch Openflow.Of_message.Hello
        done;
        check Alcotest.int "six shed" 6 (Sdnctl.Channel.queue_drops ch);
        check Alcotest.int "drops counted" 6
          (Sdnctl.Channel.dropped_to_switch ch));
    tc "messages sent while disconnected are dropped, not queued" (fun () ->
        let engine, _switch, ch, _ = channel_rig () in
        run_until engine 10;
        Sdnctl.Channel.set_down ch true;
        run_until engine 30;
        let before = Sdnctl.Channel.dropped_to_switch ch in
        Sdnctl.Channel.to_switch ch Openflow.Of_message.Hello;
        check Alcotest.int "dropped immediately" (before + 1)
          (Sdnctl.Channel.dropped_to_switch ch));
    tc "lossy channel counts what it eats" (fun () ->
        let config =
          {
            Sdnctl.Channel.default_config with
            loss = 0.5;
            seed = 11;
            latency = Sim_time.us 10;
          }
        in
        let engine, _switch, ch, _ = channel_rig ~config () in
        for _ = 1 to 100 do
          Sdnctl.Channel.to_switch ch Openflow.Of_message.Hello
        done;
        run_until engine 5;
        let dropped = Sdnctl.Channel.dropped_to_switch ch in
        check Alcotest.bool "some lost" true (dropped > 20);
        check Alcotest.bool "not all lost" true (dropped < 80));
  ]

(* ---- Soft-switch fail modes ---- *)

let two_hosts_on_switch mode =
  let engine = Engine.create () in
  let sw =
    Softswitch.Soft_switch.create engine ~name:"edge" ~ports:2
      ~miss:Softswitch.Soft_switch.Send_to_controller ()
  in
  Softswitch.Soft_switch.set_connection_mode sw mode;
  let hosts =
    Array.init 2 (fun i ->
        let h =
          Host.create engine
            ~name:(Printf.sprintf "h%d" i)
            ~mac:(Netpkt.Mac_addr.make_local (i + 1))
            ~ip:(Netpkt.Ipv4_addr.of_octets 10 0 0 (i + 1))
            ()
        in
        ignore (Link.connect (Host.node h, 0) (Softswitch.Soft_switch.node sw, i));
        h)
  in
  (engine, sw, hosts)

let drop_count sw reason = Node.drops (Softswitch.Soft_switch.node sw) reason

let fail_mode_tests =
  [
    tc "fail-standalone forwards locally while disconnected" (fun () ->
        let engine, sw, hosts =
          two_hosts_on_switch Softswitch.Soft_switch.Fail_standalone
        in
        Softswitch.Soft_switch.set_connected sw false;
        Host.ping hosts.(0) ~dst_mac:(Host.mac hosts.(1))
          ~dst_ip:(Host.ip hosts.(1)) ~seq:1;
        run_until engine 10;
        check Alcotest.int "ping answered" 1 (Host.echo_replies hosts.(0));
        check Alcotest.bool "standalone path used" true
          (Softswitch.Soft_switch.standalone_forwards sw > 0));
    tc "fail-secure drops would-be punts while disconnected" (fun () ->
        let engine, sw, hosts =
          two_hosts_on_switch Softswitch.Soft_switch.Fail_secure
        in
        Softswitch.Soft_switch.set_connected sw false;
        Host.ping hosts.(0) ~dst_mac:(Host.mac hosts.(1))
          ~dst_ip:(Host.ip hosts.(1)) ~seq:1;
        run_until engine 10;
        check Alcotest.int "no reply" 0 (Host.echo_replies hosts.(0));
        check Alcotest.bool "counted as fail-secure drops" true
          (drop_count sw Node.Drop_fail_secure > 0));
    tc "crash wipes flow state; restart comes back empty" (fun () ->
        let engine, sw, hosts =
          two_hosts_on_switch Softswitch.Soft_switch.Fail_standalone
        in
        Softswitch.Soft_switch.handle_message sw
          (Openflow.Of_message.Flow_mod
             (Openflow.Of_message.add_flow ~priority:10
                ~match_:Openflow.Of_match.any
                [ Openflow.Flow_entry.Apply_actions [ Openflow.Of_action.Drop ] ]));
        check Alcotest.int "one entry" 1
          (Openflow.Pipeline.total_entries (Softswitch.Soft_switch.pipeline sw));
        Softswitch.Soft_switch.crash sw;
        check Alcotest.bool "dead" false (Softswitch.Soft_switch.alive sw);
        check Alcotest.int "tables wiped" 0
          (Openflow.Pipeline.total_entries (Softswitch.Soft_switch.pipeline sw));
        Host.ping hosts.(0) ~dst_mac:(Host.mac hosts.(1))
          ~dst_ip:(Host.ip hosts.(1)) ~seq:1;
        run_until engine 10;
        check Alcotest.bool "drops while crashed" true
          (drop_count sw Node.Drop_crashed > 0);
        Softswitch.Soft_switch.restart sw;
        check Alcotest.bool "alive again" true (Softswitch.Soft_switch.alive sw);
        check Alcotest.int "one crash counted" 1
          (Softswitch.Soft_switch.crashes sw));
  ]

let suite =
  [
    ("fault.retry", retry_tests);
    ("fault.script", script_tests);
    ("fault.plan", fault_plan_tests);
    ("fault.channel", channel_tests);
    ("fault.failmodes", fail_mode_tests);
  ]
