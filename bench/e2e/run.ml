(* End-to-end HARMLESS benchmark.

     run.exe --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
             [--json FILE] [--append-history FILE]

   A run repeats rounds of one workload until [--seconds] of wall time
   are used (at least three rounds; two with [--trace 1]).  A round
   builds a fresh deployment, attaches the controller and warms up on
   the workload's own traffic (all timed as set-up).  It then measures
   fixed slices of seeded, open-loop traffic, each as a batch job, and
   judges every offered operation.  Every round of one seed offers the
   same input, so their counts and modelled latencies must agree
   exactly.

   Untraced runs print the end-to-end metrics; traced runs alternate
   untraced and traced rounds and print the per-layer metrics (see
   Layers).  The last line of standard output is
   one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
   exit code is 1 when a check fails or an operation fails, 2 on a usage
   error. *)

open Simnet
module D = Harmless.Deployment
module W = Workloads
module Json = Telemetry.Json
module Sw = Softswitch.Soft_switch

let clock_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* One measured slice of traffic. *)
type slice = {
  traced : bool;
  measured_s : float;
  words : float;  (** minor words allocated during the slice *)
  outcome : W.outcome;
  gc_minor : int;
  gc_major : int;
  promoted : float;
  counts : (string * int) list;  (** switch and controller counter deltas *)
}

(* One set-up followed by [w.slices] measured slices. *)
type round = {
  build_s : float;
  attach_s : float;
  warmup_s : float;
  slices : slice list;
  top_heap_words : int;  (** the process's major-heap peak when the round ended *)
  duration_s : float;
}

let switches (d : D.t) =
  match d.D.kind with
  | D.Harmless { prov; _ } -> [ prov.Harmless.Manager.ss1; prov.Harmless.Manager.ss2 ]
  | D.Plain_openflow { switch } -> [ switch ]
  | D.Legacy_only _ | D.Scaled _ -> []

let counts d ctrl dpid =
  let add acc (k, v) =
    match List.assoc_opt k acc with
    | Some x -> (k, x + v) :: List.remove_assoc k acc
    | None -> (k, v) :: acc
  in
  let sw = List.fold_left add [] (List.concat_map Sw.stats (switches d)) in
  ("controller_packet_ins", Sdnctl.Controller.packet_ins_received ctrl)
  :: ("channel_queue_drops", Sdnctl.Channel.queue_drops (Sdnctl.Controller.channel ctrl dpid))
  :: sw

let delta before after =
  List.map
    (fun (k, v) -> (k, v - Option.value (List.assoc_opt k before) ~default:0))
    after

let count r k = Option.value (List.assoc_opt k r.counts) ~default:0

let round (w : W.t) ~seed ~tracer =
  let started = clock_s () in
  Gc.compact ();
  let inst = w.W.make ~seed in
  let rng = Rng.create seed in
  let t0 = clock_s () in
  let engine = Engine.create () in
  let d = inst.W.deploy engine in
  let t1 = clock_s () in
  let ctrl = Sdnctl.Controller.create engine ?channel_config:inst.W.channel_config () in
  Option.iter (fun tr -> Sdnctl.Controller.add_app ctrl (Layers.marker_app tr)) tracer;
  List.iter (Sdnctl.Controller.add_app ctrl) inst.W.apps;
  let dpid = Sdnctl.Controller.attach_switch ctrl (D.controller_switch d) in
  inst.W.serve d;
  Experiments_lib.Common.run_for engine (Sim_time.ms 5);
  let t2 = clock_s () in
  Experiments_lib.Common.warm_legacy d;
  let stop = Sim_time.add (Engine.now engine) w.W.warmup in
  let (_warm_up_judge : unit -> W.outcome) = inst.W.offer d (Rng.split rng) ~stop in
  Experiments_lib.Common.run_for engine (w.W.warmup + w.W.drain);
  let t3 = clock_s () in
  Option.iter (fun tr -> Layers.attach tr d) tracer;
  let slice () =
    let before = counts d ctrl dpid in
    let stop = Sim_time.add (Engine.now engine) w.W.measure in
    let until = Sim_time.add stop w.W.drain in
    let judge = inst.W.offer d (Rng.split rng) ~stop in
    let gc0 = Gc.quick_stat () in
    let w0 = Gc.minor_words () in
    let m0 = clock_s () in
    (match tracer with
    | None -> Engine.run engine ~until
    | Some tr -> Layers.run tr engine ~until);
    let m1 = clock_s () in
    let w1 = Gc.minor_words () in
    let gc1 = Gc.quick_stat () in
    {
      traced = Option.is_some tracer;
      measured_s = m1 -. m0;
      words = w1 -. w0;
      outcome = judge ();
      gc_minor = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
      gc_major = gc1.Gc.major_collections - gc0.Gc.major_collections;
      promoted = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
      counts = delta before (counts d ctrl dpid);
    }
  in
  let rec slices k =
    if k = 0 then []
    else
      let c = slice () in
      c :: slices (k - 1)
  in
  let slices = slices w.W.slices in
  Option.iter (fun tr -> Layers.replay tr engine) tracer;
  {
    build_s = t1 -. t0;
    attach_s = t2 -. t1;
    warmup_s = t3 -. t2;
    slices;
    top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
    duration_s = clock_s () -. started;
  }

let rounds w ~seed ~seconds ~tracer =
  let start = clock_s () in
  let min_rounds = if Option.is_some tracer then 2 else 3 in
  let rec loop acc k =
    let tracer = if k mod 2 = 1 then tracer else None in
    let acc = round w ~seed ~tracer :: acc in
    let longest = List.fold_left (fun m r -> Float.max m r.duration_s) 0. acc in
    if k + 1 < min_rounds || clock_s () -. start +. longest <= seconds then loop acc (k + 1)
    else List.rev acc
  in
  loop [] 0

(* ---- statistics ---- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks, [p] in [0, 1]. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let k = p *. float_of_int (n - 1) in
    let i = int_of_float k in
    let j = Stdlib.min (i + 1) (n - 1) in
    a.(i) +. ((a.(j) -. a.(i)) *. (k -. float_of_int i))

let median xs = percentile 0.5 xs

let fsum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let slices rs = List.concat_map (fun r -> r.slices) rs
let setup_s r = r.build_s +. r.attach_s +. r.warmup_s
let ops_per_s c = float_of_int c.outcome.W.succeeded /. c.measured_s
let ns_per_op c = c.measured_s *. 1e9 /. float_of_int c.outcome.W.attempted
let words_per_op c = c.words /. float_of_int c.outcome.W.attempted

let modelled_us (o : W.outcome) p =
  if Stats.Histogram.count o.W.latency = 0 then 0.
  else float_of_int (Stats.Histogram.percentile o.W.latency p) /. 1e3

(* What must hold across rounds of one seed: they were offered the same
   input, so they must have produced the same results. *)
let signature r =
  List.map
    (fun c ->
      let o = c.outcome in
      ( o.W.attempted,
        o.W.succeeded,
        o.W.wrong,
        Stats.Histogram.count o.W.latency,
        modelled_us o 50.,
        modelled_us o 99. ))
    r.slices

(* ---- metrics ---- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let end_to_end rs =
  let plain = List.filter (fun c -> not c.traced) (slices rs) in
  (* The first round's peak: later rounds reuse a heap that the earlier
     ones fragmented, so the process-wide peak grows with the number of
     rounds a run fits in. *)
  let peak =
    float_of_int ((List.hd rs).top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  [
    (* The machine is shared: other tenants slow whole stretches of a run
       by up to 2x, which moves a median of slices by more than any bound
       worth having.  Noise only ever slows a slice down, so the upper
       decile of per-slice throughput tracks what the program sustains
       on an undisturbed core. *)
    m "ops_per_s" "1/s" (percentile 0.9 (List.map ops_per_s plain));
    m "words_per_op" "words" (median (List.map words_per_op plain));
    m "peak_heap_mb" "MB" peak;
    m "setup_s" "s" (median (List.map setup_s rs));
  ]

let per_layer (tr : Layers.t) rs =
  let traced, plain = List.partition (fun c -> c.traced) (slices rs) in
  let ops = fsum (fun c -> float_of_int c.outcome.W.attempted) traced in
  let per_op x = x /. ops in
  let per_kop x = 1e3 *. x /. ops in
  let sum_count k = fsum (fun c -> float_of_int (count c k)) traced in
  let ratio a b = if b = 0. then 0. else a /. b in
  let bucket_ns = Array.fold_left ( + ) 0 tr.Layers.ns in
  let layer i =
    let name = Layers.names.(i) in
    [
      m (name ^ ".share") "ratio" (ratio (float_of_int tr.Layers.ns.(i)) (float_of_int tr.Layers.wall_ns));
      m (name ^ ".words_per_op") "words" (per_op tr.Layers.words.(i));
      m (name ^ ".events_per_op") "count" (per_op (float_of_int tr.Layers.events.(i)));
    ]
  in
  let pending = List.map float_of_int tr.Layers.pending in
  let replays = float_of_int (Stdlib.max 1 tr.Layers.replays) in
  let plain_ops = fsum (fun c -> float_of_int c.outcome.W.attempted) plain in
  let packets = sum_count "packets" in
  let emc = sum_count "emc_hits" and megaflow = sum_count "megaflow_hits" in
  List.concat
    [
      [
        m "traced.ns_per_op" "ns" (per_op (float_of_int tr.Layers.wall_ns));
        m "trace.coverage" "ratio" (ratio (float_of_int bucket_ns) (float_of_int tr.Layers.wall_ns));
        m "trace.mixed_events" "count" (float_of_int tr.Layers.mixed_events);
        m "trace.overhead" "ratio"
          (median (List.map ns_per_op traced) /. median (List.map ns_per_op plain) -. 1.);
      ];
      List.concat_map layer (List.init (Array.length Layers.names) Fun.id);
      [
        m "pipeline.ns_per_op" "ns" (per_op tr.Layers.pipeline_ns);
        m "pipeline.words_per_op" "words" (per_op tr.Layers.pipeline_words);
        m "netpkt.fields_ns" "ns" (tr.Layers.netpkt.(0) /. replays);
        m "netpkt.fields_words" "words" (tr.Layers.netpkt.(1) /. replays);
        m "netpkt.vlan_pushpop_ns" "ns" (tr.Layers.netpkt.(2) /. replays);
        m "netpkt.vlan_pushpop_words" "words" (tr.Layers.netpkt.(3) /. replays);
        m "netpkt.wire_size_ns" "ns" (tr.Layers.netpkt.(4) /. replays);
        m "netpkt.wire_size_words" "words" (tr.Layers.netpkt.(5) /. replays);
        m "ovs.emc_hit_ratio" "ratio" (ratio emc packets);
        m "ovs.megaflow_hit_ratio" "ratio" (ratio megaflow packets);
        m "ovs.upcalls_per_kop" "count" (per_kop (sum_count "upcalls"));
        m "eswitch.recompiles_per_kop" "count" (per_kop (sum_count "recompiles"));
        m "pmd.dropped" "count" (sum_count "pmd_dropped");
        m "controller.packet_ins_per_op" "count" (per_op (sum_count "controller_packet_ins"));
        m "controller.flow_mods_per_op" "count" (per_op (sum_count "flow_mods"));
        m "channel.queue_drops" "count" (sum_count "channel_queue_drops");
        m "engine.events_per_op" "count"
          (per_op (float_of_int (Array.fold_left ( + ) 0 tr.Layers.events)));
        m "engine.pending_p50" "count" (median pending);
        m "engine.pending_max" "count" (List.fold_left Float.max 0. pending);
        m "gc.minor_per_kop" "count"
          (1e3 *. fsum (fun c -> float_of_int c.gc_minor) plain /. plain_ops);
        m "gc.major_per_kop" "count"
          (1e3 *. fsum (fun c -> float_of_int c.gc_major) plain /. plain_ops);
        m "gc.promoted_words_per_op" "words" (fsum (fun c -> c.promoted) plain /. plain_ops);
        m "setup.build_s" "s" (median (List.map (fun r -> r.build_s) rs));
        m "setup.attach_s" "s" (median (List.map (fun r -> r.attach_s) rs));
        m "setup.warmup_s" "s" (median (List.map (fun r -> r.warmup_s) rs));
      ];
    ]

(* ---- output ---- *)

let result_json ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun x -> (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.Str x.unit_) ]))
             metrics) );
    ]

let print_round i r =
  Printf.printf "round %d: setup %.3f s (build %.3f, attach %.3f, warm-up %.3f)\n" (i + 1)
    (setup_s r) r.build_s r.attach_s r.warmup_s;
  List.iter
    (fun c ->
      Printf.printf "  %s%.3f s, %d ops, %d failed, %.0f ops/s, %.1f words/op\n"
        (if c.traced then "traced " else "")
        c.measured_s c.outcome.W.attempted
        (c.outcome.W.attempted - c.outcome.W.succeeded)
        (ops_per_s c) (words_per_op c))
    r.slices

let print_layers (tr : Layers.t) rs =
  let ops =
    fsum (fun c -> if c.traced then float_of_int c.outcome.W.attempted else 0.) (slices rs)
  in
  Printf.printf "%-11s %7s %10s %10s %10s\n" "layer" "share" "ns/op" "words/op" "events/op";
  Array.iteri
    (fun i name ->
      Printf.printf "%-11s %6.1f%% %10.1f %10.1f %10.2f\n" name
        (100. *. float_of_int tr.Layers.ns.(i) /. float_of_int (Stdlib.max 1 tr.Layers.wall_ns))
        (float_of_int tr.Layers.ns.(i) /. ops)
        (tr.Layers.words.(i) /. ops)
        (float_of_int tr.Layers.events.(i) /. ops))
    Layers.names

let history_row name ~ops_per_s ~words_per_op ~slices =
  {
    Telemetry.Bench_history.name = "e2e/" ^ name;
    ns_per_run = Some (1e9 /. ops_per_s);
    minor_words_per_run = Some words_per_op;
    r_square = None;
    runs = slices;
  }

let append_history ~path ~seed rows =
  Telemetry.Bench_history.append ~path
    ~label:(Printf.sprintf "e2e seed=%d" seed)
    { Telemetry.Bench_history.quick = false; label = ""; rows }

let run_one (w : W.t) ~seed ~seconds ~trace ~json ~history =
  let tracer = if trace then Some (Layers.create ()) else None in
  let start = clock_s () in
  let rs = rounds w ~seed ~seconds ~tracer in
  let cs = slices rs in
  Printf.printf "e2e %s seed=%d: %d rounds, %d slices in %.1f s\n" w.W.name seed
    (List.length rs) (List.length cs) (clock_s () -. start);
  List.iteri print_round rs;
  let attempted = List.fold_left (fun acc c -> acc + c.outcome.W.attempted) 0 cs in
  let failed =
    List.fold_left (fun acc c -> acc + c.outcome.W.attempted - c.outcome.W.succeeded) 0 cs
  in
  let wrong = List.fold_left (fun acc c -> acc + c.outcome.W.wrong) 0 cs in
  let first = (List.hd cs).outcome in
  let deterministic = List.for_all (fun r -> signature r = signature (List.hd rs)) rs in
  let correct = wrong = 0 && deterministic in
  let metrics =
    match tracer with
    | None -> end_to_end rs
    | Some tr ->
        print_layers tr rs;
        per_layer tr rs
  in
  List.iter
    (fun x ->
      let values f = List.map f (List.filter (fun c -> not c.traced) cs) in
      let spread =
        match x.name with
        | "ops_per_s" -> Some (values ops_per_s)
        | "words_per_op" -> Some (values words_per_op)
        | "setup_s" -> Some (List.map setup_s rs)
        | _ -> None
      in
      match spread with
      | Some vs ->
          let a = sorted vs in
          Printf.printf "%-28s %14.6g %-6s %s of %d (min %.6g, median %.6g, max %.6g)\n"
            x.name x.value x.unit_
            (if String.equal x.name "ops_per_s" then "p90" else "median")
            (Array.length a) a.(0) (median vs) a.(Array.length a - 1)
      | None -> Printf.printf "%-28s %14.6g %s\n" x.name x.value x.unit_)
    metrics;
  Printf.printf "failed_share %.6g (%d of %d ops failed, %d wrong)\n"
    (float_of_int failed /. float_of_int (Stdlib.max 1 attempted))
    failed attempted wrong;
  Printf.printf "modelled sim_latency_p50_us=%g sim_latency_p99_us=%g (sim time, not gated)\n"
    (modelled_us first 50.) (modelled_us first 99.);
  if not deterministic then
    print_endline "CHECK FAILED: rounds of one seed disagree on counts or modelled latency";
  if wrong > 0 then Printf.printf "CHECK FAILED: %d operations got a wrong result\n" wrong;
  if failed > 0 then Printf.printf "CHECK FAILED: %d operations failed\n" failed;
  let result = result_json ~correct ~attempted ~failed metrics in
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("workload", Json.Str w.W.name);
                    ("seed", Json.Int seed);
                    ("trace", Json.Bool trace);
                    ("rounds", Json.Int (List.length rs));
                    ("slices", Json.Int (List.length cs));
                    ("sim_latency_p50_us", Json.Float (modelled_us first 50.));
                    ("sim_latency_p99_us", Json.Float (modelled_us first 99.));
                    ("result", result);
                  ]));
          output_char oc '\n'))
    json;
  (match history with
  | Some path when (not trace) && correct && failed = 0 ->
      let value name = (List.find (fun x -> String.equal x.name name) metrics).value in
      append_history ~path ~seed
        [
          history_row w.W.name ~ops_per_s:(value "ops_per_s")
            ~words_per_op:(value "words_per_op")
            ~slices:(List.length (List.filter (fun c -> not c.traced) cs));
        ]
  | Some _ | None -> ());
  print_endline (Json.to_string result);
  if correct && failed = 0 then 0 else 1

(* ---- every workload, each in a fresh process ---- *)

type child = {
  cname : string;
  ok : bool;
  ops_per_s : float option;
  words_per_op : float option;
  slices : int;
  sim_p50_us : float;
}

let run_child (w : W.t) ~seed ~seconds ~trace =
  let args =
    [ Sys.executable_name; "--workload"; w.W.name; "--seed"; string_of_int seed;
      "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") ]
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let last = ref "" and slices = ref 0 and p50 = ref nan in
  (try
     while true do
       let line = input_line ic in
       print_endline line;
       last := line;
       Option.iter (fun v -> slices := v)
         (Scanf.sscanf_opt line "e2e %_s seed=%_d: %_d rounds, %d slices" Fun.id);
       Option.iter (fun v -> p50 := v)
         (Scanf.sscanf_opt line "modelled sim_latency_p50_us=%f" Fun.id)
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let metric name =
    List.fold_left
      (fun j k -> Option.bind j (Json.member k))
      (Result.to_option (Json.of_string !last))
      [ "metrics"; name; "value" ]
    |> fun j -> Option.bind j Json.to_float_opt
  in
  {
    cname = w.W.name;
    ok = status = Unix.WEXITED 0;
    ops_per_s = metric "ops_per_s";
    words_per_op = metric "words_per_op";
    slices = !slices;
    sim_p50_us = !p50;
  }

let run_all ~seed ~seconds ~trace ~history =
  let children = List.map (run_child ~seed ~seconds ~trace) W.all in
  let find name = List.find (fun c -> String.equal c.cname name) children in
  (match ((find "hairpin-64b").ops_per_s, (find "direct-64b").ops_per_s) with
  | Some hairpin, Some direct ->
      Printf.printf "HARMLESS penalty, wall clock: direct/hairpin ops_per_s = %.2fx\n"
        (direct /. hairpin);
      Printf.printf "HARMLESS penalty, modelled: hairpin/direct sim_latency_p50 = %.2fx\n"
        ((find "hairpin-64b").sim_p50_us /. (find "direct-64b").sim_p50_us)
  | _ -> ());
  let ok = List.for_all (fun c -> c.ok) children in
  (match history with
  | Some path when ok && not trace ->
      append_history ~path ~seed
        (List.filter_map
           (fun c ->
             match (c.ops_per_s, c.words_per_op) with
             | Some ops_per_s, Some words_per_op ->
                 Some (history_row c.cname ~ops_per_s ~words_per_op ~slices:c.slices)
             | _ -> None)
           children)
  | Some _ | None -> ());
  if ok then 0 else 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let json = ref None and history = ref None in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload name, or all");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S wall seconds per run (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run (default 0)");
      ("--json", Arg.String (fun f -> json := Some f), "FILE also write the result here");
      ( "--append-history",
        Arg.String (fun f -> history := Some f),
        "FILE append a Bench_history JSONL line (untraced runs)" );
    ]
  in
  let usage =
    "run.exe --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]\nworkloads: "
    ^ String.concat ", " (List.map (fun w -> w.W.name) W.all)
  in
  let fail msg =
    prerr_endline msg;
    Arg.usage spec usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage
   with Arg.Bad msg | Arg.Help msg -> fail msg);
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if !seconds <= 0. then fail "--seconds must be positive";
  let trace = !trace = 1 in
  let code =
    if String.equal !workload "all" then
      run_all ~seed:!seed ~seconds:!seconds ~trace ~history:!history
    else
      match W.find !workload with
      | Some w -> run_one w ~seed:!seed ~seconds:!seconds ~trace ~json:!json ~history:!history
      | None -> fail ("unknown workload " ^ !workload)
  in
  exit code
