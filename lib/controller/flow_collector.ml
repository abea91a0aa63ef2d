open Softswitch

type t = {
  engine : Simnet.Engine.t;
  config : Flowrec.config;
  mutable recs : (string * Flowrec.t) list; (* registration order *)
  mutable merged : Telemetry.Sketch.Cm.t * Telemetry.Sketch.Hll.t * Telemetry.Sketch.Topk.t;
  mutable merges : int;
  sampled_series : Telemetry.Timeseries.t;
  hosts_series : Telemetry.Timeseries.t;
  top_bytes_series : Telemetry.Timeseries.t;
}

let fresh_sketches (c : Flowrec.config) =
  ( Telemetry.Sketch.Cm.create ~seed:c.Flowrec.seed ~epsilon:c.Flowrec.cm_epsilon
      ~delta:c.Flowrec.cm_delta,
    Telemetry.Sketch.Hll.create ~seed:c.Flowrec.seed ~p:c.Flowrec.hll_p,
    Telemetry.Sketch.Topk.create ~k:c.Flowrec.topk )

let create ?(config = Flowrec.default_config) engine =
  {
    engine;
    config;
    recs = [];
    merged = fresh_sketches config;
    merges = 0;
    sampled_series =
      Telemetry.Timeseries.create ~name:"flows.sampled" ();
    hosts_series = Telemetry.Timeseries.create ~name:"flows.hosts" ();
    top_bytes_series =
      Telemetry.Timeseries.create ~name:"flows.top_bytes" ();
  }

let config t = t.config
let switch_count t = List.length t.recs
let merges t = t.merges

let add_switch t sw =
  let fr = Flowrec.create ~config:t.config () in
  Soft_switch.set_flowrec sw (Some fr);
  t.recs <- t.recs @ [ (Soft_switch.name sw, fr) ]

let attach t ~name fr = t.recs <- t.recs @ [ (name, fr) ]

let recorders t = t.recs

let seen t = List.fold_left (fun n (_, fr) -> n + Flowrec.seen fr) 0 t.recs
let sampled t = List.fold_left (fun n (_, fr) -> n + Flowrec.sampled fr) 0 t.recs

let merge_now t =
  let merged =
    List.fold_left
      (fun (cm, hll, topk) (_, fr) ->
        ( Telemetry.Sketch.Cm.merge cm (Flowrec.cm fr),
          Telemetry.Sketch.Hll.merge hll (Flowrec.hll fr),
          Telemetry.Sketch.Topk.merge topk (Flowrec.topk fr) ))
      (fresh_sketches t.config) t.recs
  in
  t.merged <- merged;
  t.merges <- t.merges + 1;
  let _, hll, topk = merged in
  let now_ns = Simnet.Sim_time.to_ns (Simnet.Engine.now t.engine) in
  Telemetry.Timeseries.record t.sampled_series ~ts_ns:now_ns
    (float_of_int (sampled t));
  Telemetry.Timeseries.record t.hosts_series ~ts_ns:now_ns
    (Telemetry.Sketch.Hll.estimate hll);
  let top_bytes =
    match Telemetry.Sketch.Topk.to_list topk with
    | (_, bytes, _) :: _ -> float_of_int bytes
    | [] -> 0.0
  in
  Telemetry.Timeseries.record t.top_bytes_series ~ts_ns:now_ns top_bytes

let start t ~every =
  Simnet.Engine.schedule_every t.engine every (fun () ->
      merge_now t;
      true)

let merged_cm t = let cm, _, _ = t.merged in cm
let merged_hll t = let _, hll, _ = t.merged in hll
let merged_topk t = let _, _, topk = t.merged in topk

let hosts t = Telemetry.Sketch.Hll.estimate (merged_hll t)

let top ?k t =
  let l = Telemetry.Sketch.Topk.to_list (merged_topk t) in
  match k with
  | None -> l
  | Some k ->
      List.filteri (fun i _ -> i < k) l

let sampled_series t = t.sampled_series
let hosts_series t = t.hosts_series

let add_alert_rules ?(elephant_bytes = 1_000_000.0) ?(max_hosts = 100_000.0)
    t alerts =
  Telemetry.Alert.add_rule alerts ~name:"elephant-flow"
    ~help:"a single flow's estimated bytes exceed the elephant threshold"
    (Telemetry.Alert.Series t.top_bytes_series)
    (Telemetry.Alert.Above elephant_bytes);
  Telemetry.Alert.add_rule alerts ~name:"host-cardinality"
    ~help:"estimated distinct source hosts exceed the expected fleet size"
    (Telemetry.Alert.Series t.hosts_series)
    (Telemetry.Alert.Above max_hosts)

let fmt_bytes b =
  let b = float_of_int b in
  if b >= 1_048_576.0 then Printf.sprintf "%.1f MB" (b /. 1_048_576.0)
  else if b >= 1024.0 then Printf.sprintf "%.1f kB" (b /. 1024.0)
  else Printf.sprintf "%.0f B" b

let render ?(k = 10) t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "flow telemetry — %d switch(es), %d merge(s), %d pkts seen, %d sampled (1-in-%d)\n"
       (switch_count t) t.merges (seen t) (sampled t) t.config.Flowrec.rate);
  Buffer.add_string buf "heavy hitters (estimated bytes):\n";
  let l = top ~k t in
  if l = [] then Buffer.add_string buf "  (no sampled flows yet)\n"
  else
    List.iteri
      (fun i (key, bytes, err) ->
        Buffer.add_string buf
          (Printf.sprintf "  %2d. %10s ± %-8s %s\n" (i + 1) (fmt_bytes bytes)
             (fmt_bytes err) key))
      l;
  Buffer.add_string buf
    (Printf.sprintf "hosts: ~%.0f distinct sources (hll p=%d)\n" (hosts t)
       t.config.Flowrec.hll_p);
  Buffer.contents buf

let to_json ?(k = 10) t =
  let open Telemetry.Json in
  Obj
    [
      ("switches", Int (switch_count t));
      ("merges", Int t.merges);
      ("seen", Int (seen t));
      ("sampled", Int (sampled t));
      ("rate", Int t.config.Flowrec.rate);
      ("hosts", Float (hosts t));
      ( "top",
        Arr
          (List.map
             (fun (key, bytes, err) ->
               Obj
                 [
                   ("flow", Str key); ("bytes", Int bytes); ("err", Int err);
                 ])
             (top ~k t)) );
    ]
