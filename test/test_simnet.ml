open Simnet
open Netpkt

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let prop name ?(count = 200) gen ~print f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen f)

(* ---- Time ---- *)

let time_tests =
  [
    tc "unit conversions" (fun () ->
        check Alcotest.int "us" 1_000 (Sim_time.us 1);
        check Alcotest.int "ms" 1_000_000 (Sim_time.ms 1);
        check Alcotest.int "s" 1_000_000_000 (Sim_time.s 1));
    tc "negative instants rejected" (fun () ->
        check Alcotest.bool "of_ns" true
          (try ignore (Sim_time.of_ns (-1)); false with Invalid_argument _ -> true);
        check Alcotest.bool "add" true
          (try ignore (Sim_time.add Sim_time.zero (-5)); false
           with Invalid_argument _ -> true));
    tc "of_seconds rounds" (fun () ->
        check Alcotest.int "1.5us" 1_500 (Sim_time.of_seconds 1.5e-6));
    tc "diff is subtraction" (fun () ->
        let a = Sim_time.of_ns 500 and b = Sim_time.of_ns 200 in
        check Alcotest.int "diff" 300 (Sim_time.diff a b);
        check Alcotest.int "neg" (-300) (Sim_time.diff b a));
  ]

(* ---- Event queue ---- *)

(* A frame built at run time, so that it lives on the heap and can die. *)
let[@inline never] fresh_frame i =
  Packet.make ~dst:(Mac_addr.make_local i) ~src:(Mac_addr.make_local 1)
    (Packet.Raw (Ethertype.of_int 0x88b5, String.make 8 'x'))

let test_frame = fresh_frame 1

(* An engine script: [`At (dt, None)] schedules a thunk at [now + dt],
   [`At (dt, Some k)] a delivery there to sink [k]; events are numbered
   in scheduling order.  [`Step] runs one event. *)
type op = [ `At of int * int option | `Step ]

(* Run [ops] on a fresh engine with [sinks] sinks, then drain it; return
   the event numbers in pop order and [Engine.pending] after each op. *)
let run_ops ~sinks (ops : op list) =
  let e = Engine.create () in
  let order = ref [] in
  let sinks = Array.init sinks (fun _ -> Engine.sink e (fun n _ -> order := n :: !order)) in
  let pkt = fresh_frame 2 in
  let n = ref 0 in
  let pending =
    List.map
      (fun op ->
        (match op with
        | `Step -> ignore (Engine.step e)
        | `At (dt, ev) -> (
            let at = Sim_time.add (Engine.now e) dt and i = !n in
            incr n;
            match ev with
            | None -> Engine.schedule_at e at (fun () -> order := i :: !order)
            | Some k -> Engine.deliver_at e at sinks.(k) i pkt));
        Engine.pending e)
      ops
  in
  Engine.run e;
  (List.rev !order, pending)

(* The same script on a sorted list: the specification. *)
let model_ops (ops : op list) =
  let queue = ref [] and now = ref 0 and n = ref 0 and order = ref [] in
  let pop () =
    match List.sort compare !queue with
    | [] -> ()
    | (at, i) :: rest ->
        queue := rest;
        now := at;
        order := i :: !order
  in
  let pending =
    List.map
      (fun op ->
        (match op with
        | `Step -> pop ()
        | `At (dt, _) ->
            queue := (!now + dt, !n) :: !queue;
            incr n);
        List.length !queue)
      ops
  in
  while !queue <> [] do
    pop ()
  done;
  (List.rev !order, pending)

let pop_order ?(sinks = 1) events =
  fst (run_ops ~sinks (List.map (fun (t, ev) -> `At (t, ev)) events))

let ops_gen =
  QCheck2.Gen.(
    list_size (int_range 1 200)
      (frequency
         [ (1, return `Step);
           (4, map2 (fun dt ev -> `At (dt, ev)) (int_bound 50) (opt (int_bound 4))) ]))

let print_ops ops =
  String.concat ","
    (List.map
       (function
         | `Step -> "s"
         | `At (dt, None) -> string_of_int dt
         | `At (dt, Some k) -> Printf.sprintf "%d>%d" dt k)
       ops)

(* In-order deliveries spread over [sinks] sinks with [depth] in flight,
   the shape of a hairpin run (about 234 frames over about 20 sinks):
   [once ()] runs one event and schedules the next delivery. *)
let steady_deliveries e ~sinks ~depth =
  let total = ref 0 in
  let sinks = Array.init sinks (fun _ -> Engine.sink e (fun port _ -> total := !total + port)) in
  let k = ref 0 in
  let deliver () =
    Engine.deliver_at e (Sim_time.add (Engine.now e) 1_000) sinks.(!k) 1 test_frame;
    k := (!k + 7) mod Array.length sinks
  in
  for _ = 1 to depth do
    deliver ()
  done;
  let once () =
    ignore (Engine.step e);
    deliver ()
  in
  (once, total)

(* Deliver one fresh frame through [schedule], run the engine and check
   that nothing it kept still reaches the frame. *)
let check_not_pinned schedule =
  let e = Engine.create () in
  let seen = Weak.create 1 in
  let ran = ref 0 in
  let sink = Engine.sink e (fun _ _ -> incr ran) in
  let[@inline never] schedule () =
    let pkt = fresh_frame 3 in
    Weak.set seen 0 (Some pkt);
    schedule e sink pkt
  in
  schedule ();
  Engine.run e;
  Gc.full_major ();
  check Alcotest.bool "ran" true (!ran > 0);
  check Alcotest.bool "collected" false (Weak.check seen 0);
  (* The engine, and through it the sink's lane, is still live here. *)
  check Alcotest.int "drained" 0 (Engine.pending e)

let eq_tests =
  [
    tc "pops in time order" (fun () ->
        let times = [ 50; 10; 30; 20; 40 ] in
        let order = pop_order (List.map (fun t -> (t, None)) times) in
        check Alcotest.(list int) "sorted" [ 10; 20; 30; 40; 50 ]
          (List.map (List.nth times) order));
    tc "fifo among equal timestamps" (fun () ->
        check Alcotest.(list int) "fifo" [ 0; 1; 2; 3; 4 ]
          (pop_order ~sinks:2
             [ (7, None); (7, Some 0); (7, None); (7, Some 1); (7, Some 0) ]));
    prop "qcheck: always non-decreasing pop order"
      (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 200)
         (QCheck2.Gen.int_bound 10_000))
      ~print:(fun l -> String.concat "," (List.map string_of_int l))
      (fun times ->
        let e = Engine.create () in
        let ok = ref true in
        List.iter
          (fun t ->
            Engine.schedule_at e (Sim_time.of_ns t) (fun () ->
                ok := !ok && Sim_time.to_ns (Engine.now e) = t))
          times;
        let last = ref 0 and monotone = ref true in
        while Engine.step e do
          let now = Sim_time.to_ns (Engine.now e) in
          monotone := !monotone && now >= !last;
          last := now
        done;
        !ok && !monotone);
    (* Random instants per sink put deliveries both at and before their
       lane's newest instant, and steps between them interleave scheduling
       with dispatch: the lanes, the out-of-order fallback and the thunks
       must together pop as a stable sort by (instant, scheduling order). *)
    prop "qcheck: thunks and deliveries over several sinks pop in (time, seq) order"
      ops_gen ~print:print_ops
      (fun ops -> run_ops ~sinks:5 ops = model_ops ops);
    tc "pending counts lane deliveries and thunks" (fun () ->
        let e = Engine.create () in
        let a = Engine.sink e (fun _ _ -> ()) and b = Engine.sink e (fun _ _ -> ()) in
        Engine.deliver_at e (Sim_time.of_ns 10) a 0 test_frame;
        Engine.deliver_at e (Sim_time.of_ns 20) a 0 test_frame;
        Engine.deliver_at e (Sim_time.of_ns 5) a 0 test_frame;
        Engine.deliver_at e (Sim_time.of_ns 15) b 0 test_frame;
        Engine.schedule_at e (Sim_time.of_ns 30) (fun () -> ());
        check Alcotest.int "queued" 5 (Engine.pending e);
        Engine.enable_telemetry e;
        Engine.run e;
        check Alcotest.int "drained" 0 (Engine.pending e);
        match Engine.queue_depth_series e with
        | None -> Alcotest.fail "no queue-depth series"
        | Some series ->
            check
              Alcotest.(list (pair int int))
              "depth after each pop"
              [ (5, 4); (10, 3); (15, 2); (20, 1); (30, 0) ]
              (List.map (fun (ts, v) -> (ts, int_of_float v))
                 (Telemetry.Timeseries.to_list series)));
    tc "a sink of another engine is rejected" (fun () ->
        let e = Engine.create () and other = Engine.create () in
        let sink = Engine.sink other (fun _ _ -> ()) in
        check Alcotest.bool "foreign sink" true
          (try
             Engine.deliver_at e (Sim_time.of_ns 10) sink 0 test_frame;
             false
           with Invalid_argument _ -> true);
        check Alcotest.int "nothing queued" 0 (Engine.pending e));
    tc "scheduling and running a delivery allocate nothing" (fun () ->
        let e = Engine.create () in
        let once, total = steady_deliveries e ~sinks:20 ~depth:234 in
        (* Warm-up: every lane reaches its depth. *)
        for _ = 1 to 2_000 do
          once ()
        done;
        let before = Gc.minor_words () in
        for _ = 1 to 10_000 do
          once ()
        done;
        check Alcotest.int "minor words over 10k deliveries" 0
          (int_of_float (Gc.minor_words () -. before));
        check Alcotest.int "all delivered" 12_000 !total;
        check Alcotest.int "in flight" 234 (Engine.pending e));
    tc "a delivered frame is not pinned by the queue (lane)" (fun () ->
        check_not_pinned (fun e sink pkt ->
            Engine.deliver_at e (Sim_time.of_ns 10) sink 0 pkt;
            Engine.deliver_at e (Sim_time.of_ns 20) sink 0 test_frame));
    tc "a delivered frame is not pinned by the queue (out of order)" (fun () ->
        check_not_pinned (fun e sink pkt ->
            Engine.deliver_at e (Sim_time.of_ns 20) sink 0 test_frame;
            Engine.deliver_at e (Sim_time.of_ns 10) sink 0 pkt));
    tc "delivery in the past rejected" (fun () ->
        let e = Engine.create () in
        let sink = Engine.sink e (fun _ _ -> ()) in
        Engine.schedule_after e 100 (fun () -> ());
        Engine.run e;
        check Alcotest.bool "past" true
          (try
             Engine.deliver_at e (Sim_time.of_ns 50) sink 0 test_frame;
             false
           with Invalid_argument _ -> true));
  ]

(* ---- Engine ---- *)

let engine_tests =
  [
    tc "clock advances to event times" (fun () ->
        let e = Engine.create () in
        let seen = ref [] in
        Engine.schedule_after e 100 (fun () -> seen := 100 :: !seen);
        Engine.schedule_after e 50 (fun () -> seen := 50 :: !seen);
        Engine.run e;
        check Alcotest.(list int) "order" [ 50; 100 ] (List.rev !seen);
        check Alcotest.int "clock" 100 (Sim_time.to_ns (Engine.now e)));
    tc "until caps the clock and preserves later events" (fun () ->
        let e = Engine.create () in
        let fired = ref false in
        Engine.schedule_after e 1_000 (fun () -> fired := true);
        Engine.run e ~until:(Sim_time.of_ns 500);
        check Alcotest.bool "not yet" false !fired;
        check Alcotest.int "clock = until" 500 (Sim_time.to_ns (Engine.now e));
        Engine.run e;
        check Alcotest.bool "eventually" true !fired);
    tc "events can schedule events" (fun () ->
        let e = Engine.create () in
        let count = ref 0 in
        let rec tick () =
          incr count;
          if !count < 10 then Engine.schedule_after e 10 tick
        in
        Engine.schedule_after e 0 tick;
        Engine.run e;
        check Alcotest.int "count" 10 !count;
        check Alcotest.int "executed" 10 (Engine.events_executed e));
    tc "max_events bounds execution" (fun () ->
        let e = Engine.create () in
        for i = 1 to 10 do
          Engine.schedule_after e i (fun () -> ())
        done;
        Engine.run e ~max_events:3;
        check Alcotest.int "pending" 7 (Engine.pending e));
    tc "scheduling in the past rejected" (fun () ->
        let e = Engine.create () in
        Engine.schedule_after e 100 (fun () -> ());
        Engine.run e;
        check Alcotest.bool "past" true
          (try Engine.schedule_at e (Sim_time.of_ns 50) (fun () -> ()); false
           with Invalid_argument _ -> true));
  ]

(* ---- RNG ---- *)

let rng_tests =
  [
    tc "deterministic given a seed" (fun () ->
        let a = Rng.create 42 and b = Rng.create 42 in
        for _ = 1 to 100 do
          check Alcotest.int "same" (Rng.int a 1000) (Rng.int b 1000)
        done);
    tc "different seeds differ" (fun () ->
        let a = Rng.create 1 and b = Rng.create 2 in
        let same = ref 0 in
        for _ = 1 to 50 do
          if Rng.int a 1_000_000 = Rng.int b 1_000_000 then incr same
        done;
        check Alcotest.bool "mostly different" true (!same < 5));
    prop "int stays in bounds"
      (QCheck2.Gen.pair (QCheck2.Gen.int_range 1 10_000) (QCheck2.Gen.int_bound 1000))
      ~print:(fun (b, s) -> Printf.sprintf "bound %d seed %d" b s)
      (fun (bound, seed) ->
        let rng = Rng.create seed in
        let ok = ref true in
        for _ = 1 to 50 do
          let v = Rng.int rng bound in
          if v < 0 || v >= bound then ok := false
        done;
        !ok);
    tc "exponential has roughly the right mean" (fun () ->
        let rng = Rng.create 7 in
        let n = 20_000 in
        let sum = ref 0.0 in
        for _ = 1 to n do
          sum := !sum +. Rng.exponential rng ~mean:100.0
        done;
        let mean = !sum /. float_of_int n in
        check Alcotest.bool "mean in [95, 105]" true (mean > 95.0 && mean < 105.0));
    tc "zipf skew concentrates mass" (fun () ->
        let rng = Rng.create 3 in
        let z = Rng.Zipf.create ~n:100 ~skew:1.2 in
        let hits = Array.make 100 0 in
        for _ = 1 to 10_000 do
          let i = Rng.Zipf.draw z rng in
          hits.(i) <- hits.(i) + 1
        done;
        check Alcotest.bool "rank0 most popular" true (hits.(0) > hits.(50));
        check Alcotest.bool "rank0 > 10%" true (hits.(0) > 1000));
    tc "zipf zero skew is roughly uniform" (fun () ->
        let rng = Rng.create 3 in
        let z = Rng.Zipf.create ~n:10 ~skew:0.0 in
        let hits = Array.make 10 0 in
        for _ = 1 to 10_000 do
          let i = Rng.Zipf.draw z rng in
          hits.(i) <- hits.(i) + 1
        done;
        Array.iter
          (fun h -> check Alcotest.bool "each ~1000" true (h > 800 && h < 1200))
          hits);
    tc "shuffle preserves elements" (fun () ->
        let rng = Rng.create 5 in
        let a = Array.init 50 Fun.id in
        Rng.shuffle rng a;
        let sorted = Array.copy a in
        Array.sort Int.compare sorted;
        check Alcotest.bool "permutation" true (sorted = Array.init 50 Fun.id));
  ]

(* ---- Stats ---- *)

let stats_tests =
  [
    tc "counter accumulates" (fun () ->
        let n = Node.create (Engine.create ()) ~name:"n" ~ports:0 in
        Node.drop n Node.Drop_storm;
        Node.drop n Node.Drop_storm;
        Node.drop n Node.Tx_drop_no_carrier;
        check Alcotest.int "storm" 2 (Node.drops n Node.Drop_storm);
        check Alcotest.int "no carrier" 1 (Node.drops n Node.Tx_drop_no_carrier);
        check Alcotest.int "absent" 0 (Node.drops n Node.Drop_crashed);
        check Alcotest.(list (pair string int)) "non-zero, by name"
          [ ("drop_storm", 2); ("tx_drop_no_carrier", 1) ]
          (Node.drop_counters n));
    tc "histogram exact below 64" (fun () ->
        let h = Telemetry.Hdr.create () in
        List.iter (Telemetry.Hdr.record h) [ 1; 2; 3; 4; 5 ];
        check Alcotest.int "min" 1 (Telemetry.Hdr.min h);
        check Alcotest.int "max" 5 (Telemetry.Hdr.max h);
        check Alcotest.int "p50" 3 (Telemetry.Hdr.percentile h 50.0);
        check Alcotest.int "p100" 5 (Telemetry.Hdr.percentile h 100.0));
    tc "histogram p99 ~ right magnitude" (fun () ->
        let h = Telemetry.Hdr.create () in
        for i = 1 to 1000 do
          Telemetry.Hdr.record h (i * 100)
        done;
        let p99 = Telemetry.Hdr.percentile h 99.0 in
        check Alcotest.bool "within 7%" true
          (float_of_int (abs (p99 - 99_000)) /. 99_000.0 < 0.07));
    tc "histogram merge" (fun () ->
        let a = Telemetry.Hdr.create () and b = Telemetry.Hdr.create () in
        Telemetry.Hdr.record a 10;
        Telemetry.Hdr.record b 1000;
        let m = Telemetry.Hdr.merge a b in
        check Alcotest.int "count" 2 (Telemetry.Hdr.count m);
        check Alcotest.int "min" 10 (Telemetry.Hdr.min m);
        check Alcotest.int "max" 1000 (Telemetry.Hdr.max m));
    tc "histogram empty percentile rejected" (fun () ->
        let h = Telemetry.Hdr.create () in
        check Alcotest.bool "raises" true
          (try ignore (Telemetry.Hdr.percentile h 50.0); false
           with Invalid_argument _ -> true));
    prop "histogram percentile within relative error"
      (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 300)
         (QCheck2.Gen.int_bound 1_000_000))
      ~print:(fun l -> string_of_int (List.length l))
      (fun samples ->
        let h = Telemetry.Hdr.create () in
        List.iter (Telemetry.Hdr.record h) samples;
        let sorted = List.sort Int.compare samples in
        let n = List.length sorted in
        let exact = List.nth sorted ((n - 1) / 2) in
        let approx = Telemetry.Hdr.percentile h 50.0 in
        (* log-bucketing gives ~6% relative precision *)
        abs (approx - exact) <= Stdlib.max 1 (exact / 10));
  ]

(* ---- Links and nodes ---- *)

let mk_pair () =
  let engine = Engine.create () in
  let a = Node.create engine ~name:"a" ~ports:1 in
  let b = Node.create engine ~name:"b" ~ports:1 in
  (engine, a, b)

let test_packet =
  Packet.udp ~dst:(Mac_addr.make_local 2) ~src:(Mac_addr.make_local 1)
    ~ip_src:(Ipv4_addr.of_string "10.0.0.1") ~ip_dst:(Ipv4_addr.of_string "10.0.0.2")
    ~src_port:1 ~dst_port:2 "payload-12"

let link_tests =
  [
    tc "delivery delay = serialization + propagation" (fun () ->
        let engine, a, b = mk_pair () in
        let cfg =
          Link.config ~bandwidth_bps:1_000_000_000 ~propagation:(Sim_time.us 5) ()
        in
        ignore (Link.connect ~a_to_b:cfg ~b_to_a:cfg (a, 0) (b, 0));
        let arrival = ref (-1) in
        Node.set_handler b (fun _ ~in_port:_ _ ->
            arrival := Sim_time.to_ns (Engine.now engine));
        Node.transmit a ~port:0 test_packet;
        Engine.run engine;
        (* wire size = 64+4 = wrong; udp payload 10 -> frame 52 -> padded 60+4 = 64B.
           64B at 1G = 512 ns, + 5000 ns propagation. *)
        check Alcotest.int "arrival" 5512 !arrival);
    tc "queue backlog delays consecutive frames" (fun () ->
        let engine, a, b = mk_pair () in
        ignore (Link.connect (a, 0) (b, 0));
        let arrivals = ref [] in
        Node.set_handler b (fun _ ~in_port:_ _ ->
            arrivals := Sim_time.to_ns (Engine.now engine) :: !arrivals);
        Node.transmit a ~port:0 test_packet;
        Node.transmit a ~port:0 test_packet;
        Engine.run engine;
        match List.rev !arrivals with
        | [ t1; t2 ] -> check Alcotest.int "spaced by serialization" 512 (t2 - t1)
        | _ -> Alcotest.fail "expected two deliveries");
    tc "tiny queue tail-drops" (fun () ->
        let engine, a, b = mk_pair () in
        let cfg = Link.config ~queue_bytes:100 () in
        let link = Link.connect ~a_to_b:cfg ~b_to_a:cfg (a, 0) (b, 0) in
        for _ = 1 to 50 do
          Node.transmit a ~port:0 test_packet
        done;
        Engine.run engine;
        let stats = Link.stats_a_to_b link in
        check Alcotest.bool "drops" true (stats.Link.drops_queue > 0);
        check Alcotest.int "conservation" 50
          (stats.Link.tx_packets + stats.Link.drops_queue));
    tc "mtu enforcement" (fun () ->
        let engine, a, b = mk_pair () in
        let cfg = Link.config ~mtu:100 () in
        let link = Link.connect ~a_to_b:cfg ~b_to_a:cfg (a, 0) (b, 0) in
        let big =
          Packet.udp ~dst:(Mac_addr.make_local 2) ~src:(Mac_addr.make_local 1)
            ~ip_src:(Ipv4_addr.of_string "10.0.0.1")
            ~ip_dst:(Ipv4_addr.of_string "10.0.0.2") ~src_port:1 ~dst_port:2
            (String.make 200 'x')
        in
        Node.transmit a ~port:0 big;
        Engine.run engine;
        check Alcotest.int "mtu drop" 1 (Link.stats_a_to_b link).Link.drops_mtu);
    tc "double attach rejected" (fun () ->
        let _, a, b = mk_pair () in
        ignore (Link.connect (a, 0) (b, 0));
        check Alcotest.bool "raises" true
          (try ignore (Link.connect (a, 0) (b, 0)); false
           with Invalid_argument _ -> true));
    tc "transmit unattached counted as drop" (fun () ->
        let _, a, _ = mk_pair () in
        Node.transmit a ~port:0 test_packet;
        check Alcotest.int "drop" 1
          (Node.drops a Node.Tx_drop_unattached));
    tc "disconnect stops delivery" (fun () ->
        let engine, a, b = mk_pair () in
        let link = Link.connect (a, 0) (b, 0) in
        Link.disconnect link;
        Node.transmit a ~port:0 test_packet;
        Engine.run engine;
        check Alcotest.int "b got nothing" 0 (Node.rx_total b));
    tc "add_ports extends a node" (fun () ->
        let engine = Engine.create () in
        let n = Node.create engine ~name:"x" ~ports:2 in
        let first = Node.add_ports n 3 in
        check Alcotest.int "first new" 2 first;
        check Alcotest.int "total" 5 (Node.port_count n));
    tc "typed port counters" (fun () ->
        let _, a, _ = mk_pair () in
        ignore (Node.add_ports a 1) (* the counters grow with the ports *);
        Node.attach a ~port:1 ignore;
        Node.transmit a ~port:1 test_packet;
        Node.transmit a ~port:1 test_packet;
        Node.transmit a ~port:0 test_packet (* unattached: a drop *);
        Node.deliver a ~port:0 test_packet;
        let w = Packet.wire_size test_packet in
        check Alcotest.(list int) "port 0 rx/tx packets and bytes"
          [ 1; w; 0; 0 ]
          [ Node.rx_packets a ~port:0; Node.rx_bytes a ~port:0;
            Node.tx_packets a ~port:0; Node.tx_bytes a ~port:0 ];
        check Alcotest.(list int) "tx packets/bytes, port 1"
          [ 2; 2 * w ] [ Node.tx_packets a ~port:1; Node.tx_bytes a ~port:1 ];
        check Alcotest.(pair int int) "totals" (1, 2) (Node.rx_total a, Node.tx_total a);
        check Alcotest.(list (pair string int)) "named for export"
          [ ("rx", 1); ("tx", 2); ("rx.0", 1); ("rx_bytes.0", w); ("tx.1", 2);
            ("tx_bytes.1", 2 * w) ]
          (Node.traffic_counters a);
        check Alcotest.(list (pair string int)) "drops stay named"
          [ ("tx_drop_unattached", 1) ]
          (Node.drop_counters a);
        check Alcotest.bool "bad port" true
          (try ignore (Node.rx_packets a ~port:2); false
           with Invalid_argument _ -> true));
    tc "transmit and deliver allocate nothing" (fun () ->
        let _, a, _ = mk_pair () in
        Node.attach a ~port:0 ignore;
        let once () =
          Node.transmit a ~port:0 test_packet;
          Node.deliver a ~port:0 test_packet
        in
        once ();
        let before = Gc.minor_words () in
        once ();
        check Alcotest.int "minor words" 0
          (int_of_float (Gc.minor_words () -. before)));
    tc "Node.drop allocates nothing" (fun () ->
        let _, a, _ = mk_pair () in
        Node.drop a Node.Drop_rx_ring;
        let before = Gc.minor_words () in
        for _ = 1 to 10_000 do
          Node.drop a Node.Drop_rx_ring
        done;
        check Alcotest.int "minor words over 10k drops" 0
          (int_of_float (Gc.minor_words () -. before));
        check Alcotest.int "all counted" 10_001 (Node.drops a Node.Drop_rx_ring));
  ]

(* ---- Hosts and traffic ---- *)

let host_pair () =
  let engine = Engine.create () in
  let h1 =
    Host.create engine ~name:"h1" ~mac:(Mac_addr.make_local 1)
      ~ip:(Ipv4_addr.of_string "10.0.0.1") ()
  in
  let h2 =
    Host.create engine ~name:"h2" ~mac:(Mac_addr.make_local 2)
      ~ip:(Ipv4_addr.of_string "10.0.0.2") ()
  in
  ignore (Link.connect (Host.node h1, 0) (Host.node h2, 0));
  (engine, h1, h2)

let host_tests =
  [
    tc "arp request answered" (fun () ->
        let engine, h1, h2 = host_pair () in
        Host.send h1
          (Packet.arp_request ~src_mac:(Host.mac h1) ~src_ip:(Host.ip h1)
             ~target_ip:(Host.ip h2));
        Engine.run engine;
        check Alcotest.bool "cached" true
          (List.exists
             (fun (ip, mac) ->
               Ipv4_addr.equal ip (Host.ip h2) && Mac_addr.equal mac (Host.mac h2))
             (Host.arp_cache h1)));
    tc "ping answered" (fun () ->
        let engine, h1, h2 = host_pair () in
        Host.ping h1 ~dst_mac:(Host.mac h2) ~dst_ip:(Host.ip h2) ~seq:1;
        Engine.run engine;
        check Alcotest.int "reply" 1 (Host.echo_replies h1));
    tc "udp echo mirrors" (fun () ->
        let engine, h1, h2 = host_pair () in
        Host.enable_udp_echo h2 ~port:7;
        Host.send h1
          (Packet.udp ~dst:(Host.mac h2) ~src:(Host.mac h1) ~ip_src:(Host.ip h1)
             ~ip_dst:(Host.ip h2) ~src_port:5555 ~dst_port:7 "bounce me!");
        Engine.run engine;
        check Alcotest.int "back at h1" 1 (Host.udp_received h1));
    tc "udp to wrong mac ignored" (fun () ->
        let engine, h1, h2 = host_pair () in
        Host.send h1
          (Packet.udp ~dst:(Mac_addr.make_local 99) ~src:(Host.mac h1)
             ~ip_src:(Host.ip h1) ~ip_dst:(Host.ip h2) ~src_port:1 ~dst_port:2 "x");
        Engine.run engine;
        check Alcotest.int "not consumed" 0 (Host.udp_received h2));
    tc "http server returns one 200 and one 404" (fun () ->
        let engine, h1, h2 = host_pair () in
        Host.serve_http h2 ~pages:[ "/index.html" ];
        Host.http_get h1 ~server_mac:(Host.mac h2) ~server_ip:(Host.ip h2)
          ~host:"example.com" ~path:"/index.html" ~src_port:4000;
        Host.http_get h1 ~server_mac:(Host.mac h2) ~server_ip:(Host.ip h2)
          ~host:"example.com" ~path:"/missing" ~src_port:4001;
        Engine.run engine;
        check Alcotest.int "responses" 2 (Host.http_responses h1);
        check Alcotest.int "one 200" 1 (Host.http_status_count h1 ~status:200);
        check Alcotest.int "one 404" 1 (Host.http_status_count h1 ~status:404));
    tc "latency recorded for probes" (fun () ->
        let engine, h1, h2 = host_pair () in
        let payload = Probe.encode ~sent_at:(Engine.now engine) ~pad_to:20 in
        Host.send h1
          (Packet.udp ~dst:(Host.mac h2) ~src:(Host.mac h1) ~ip_src:(Host.ip h1)
             ~ip_dst:(Host.ip h2) ~src_port:1 ~dst_port:2 payload);
        Engine.run engine;
        check Alcotest.int "one sample" 1 (Telemetry.Hdr.count (Host.latency h2));
        check Alcotest.bool "latency > 0" true
          (Telemetry.Hdr.min (Host.latency h2) > 0));
    tc "probe round-trip" (fun () ->
        let t = Sim_time.of_ns 123_456_789 in
        check Alcotest.int "decode" 123_456_789
          (Probe.decode (Probe.encode ~sent_at:t ~pad_to:40)));
    tc "probe decode of a non-probe is -1" (fun () ->
        check Alcotest.int "no magic" (-1) (Probe.decode "not a probe payload");
        check Alcotest.int "too short" (-1) (Probe.decode "@T1234"));
    prop "probe decode inverts encode at every length" ~count:1000
      QCheck2.Gen.(
        pair
          (oneof [ small_nat; map (fun n -> n land max_int) int ])
          (int_range 0 1500))
      ~print:(fun (ns, pad_to) -> Printf.sprintf "sent_at=%d pad_to=%d" ns pad_to)
      (fun (ns, pad_to) ->
        let s = Probe.encode ~sent_at:(Sim_time.of_ns ns) ~pad_to in
        String.length s = Stdlib.max 10 pad_to
        && Probe.decode s = ns);
    tc "cbr stream sends the right count" (fun () ->
        let engine, h1, h2 = host_pair () in
        let stream =
          Traffic.udp_stream ~rng:(Rng.create 1) ~src:h1 ~dst_mac:(Host.mac h2)
            ~dst_ip:(Host.ip h2)
            ~stop:(Sim_time.of_ns (Sim_time.ms 1))
            (Traffic.Cbr 1_000_000.0) (Traffic.Fixed 64) ()
        in
        Engine.run engine;
        check Alcotest.int "1000 packets in 1ms at 1Mpps" 1000 (Traffic.sent stream);
        check Alcotest.int "all delivered" 1000 (Host.udp_received h2));
    tc "receive hooks run in registration order, before the host" (fun () ->
        let engine, h1, h2 = host_pair () in
        let calls = ref [] in
        List.iter
          (fun i ->
            Host.on_receive h2 (fun _ ->
                calls := (i, Host.udp_received h2) :: !calls))
          [ 1; 2; 3 ];
        Host.send h1
          (Packet.udp ~dst:(Host.mac h2) ~src:(Host.mac h1) ~ip_src:(Host.ip h1)
             ~ip_dst:(Host.ip h2) ~src_port:1 ~dst_port:2 "x");
        Engine.run engine;
        check Alcotest.(list (pair int int)) "order, udp not yet counted"
          [ (1, 0); (2, 0); (3, 0) ] (List.rev !calls);
        check Alcotest.int "then handled" 1 (Host.udp_received h2));
    tc "imix sizes are legal" (fun () ->
        let engine, h1, h2 = host_pair () in
        let sizes = ref [] in
        Host.on_receive h2 (fun p -> sizes := Packet.wire_size p :: !sizes);
        ignore
          (Traffic.udp_stream ~rng:(Rng.create 1) ~src:h1 ~dst_mac:(Host.mac h2)
             ~dst_ip:(Host.ip h2)
             ~stop:(Sim_time.of_ns (Sim_time.us 100))
             (Traffic.Cbr 1_000_000.0) Traffic.Imix ());
        Engine.run engine;
        check Alcotest.int "every frame seen" (Host.received_count h2)
          (List.length !sizes);
        List.iter
          (fun w ->
            check Alcotest.bool "legal imix size" true
              (List.mem w [ 64; 594; 1518 ]))
          !sizes);
  ]

let capture_tests =
  [
    tc "capture records both directions in order" (fun () ->
        let engine, h1, h2 = host_pair () in
        let cap = Capture.create () in
        Capture.attach cap (Host.node h1);
        Host.ping h1 ~dst_mac:(Host.mac h2) ~dst_ip:(Host.ip h2) ~seq:1;
        Engine.run engine;
        match Capture.entries cap with
        | [ tx; rx ] ->
            check Alcotest.bool "tx first" true (tx.Capture.dir = Node.Tx);
            check Alcotest.bool "then rx" true (rx.Capture.dir = Node.Rx);
            check Alcotest.bool "time order" true
              (Sim_time.compare tx.Capture.time rx.Capture.time <= 0)
        | entries ->
            Alcotest.failf "expected 2 entries, got %d" (List.length entries));
  ]


(* ---- pcap export ---- *)

let le32_at s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let pcap_tests =
  [
    tc "pcap export has valid framing and one record per rx frame" (fun () ->
        let engine, h1, h2 = host_pair () in
        let cap = Capture.create () in
        Capture.attach cap (Host.node h2);
        Host.ping h1 ~dst_mac:(Host.mac h2) ~dst_ip:(Host.ip h2) ~seq:1;
        Engine.run engine;
        let pcap = Capture.to_pcap cap in
        check Alcotest.int "magic" 0xa1b2c3d4 (le32_at pcap 0);
        check Alcotest.int "linktype ethernet" 1 (le32_at pcap 20);
        (* h2 received exactly the echo request *)
        let caplen = le32_at pcap (24 + 8) in
        check Alcotest.bool "plausible frame length" true
          (caplen >= 42 && caplen <= 1518);
        (* exactly one record: header(24) + rec header(16) + caplen *)
        check Alcotest.int "file length" (24 + 16 + caplen) (String.length pcap);
        (* the record's bytes decode back to the echo request *)
        let frame = String.sub pcap 40 caplen in
        match (Packet.decode frame).Packet.l3 with
        | Packet.Ip { Ipv4.payload = Ipv4.Icmp (Icmp.Echo_request _); _ } -> ()
        | _ -> Alcotest.fail "record is not the echo request");
    tc "direction filter selects tx" (fun () ->
        let engine, h1, h2 = host_pair () in
        let cap = Capture.create () in
        Capture.attach cap (Host.node h1);
        Host.ping h1 ~dst_mac:(Host.mac h2) ~dst_ip:(Host.ip h2) ~seq:1;
        Engine.run engine;
        (* h1 both sent the request (tx) and received the reply (rx) *)
        let rx = Capture.to_pcap cap in
        let tx = Capture.to_pcap ~dir:Node.Tx cap in
        check Alcotest.bool "both non-trivial" true
          (String.length rx > 24 && String.length tx > 24));
  ]

let suite =
  [
    ("simnet.time", time_tests);
    ("simnet.event_queue", eq_tests);
    ("simnet.engine", engine_tests);
    ("simnet.rng", rng_tests);
    ("simnet.stats", stats_tests);
    ("simnet.link", link_tests);
    ("simnet.host", host_tests);
    ("simnet.capture", capture_tests);
    ("simnet.pcap", pcap_tests);
  ]
