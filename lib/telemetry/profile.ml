(* Exact per-stage distributions.

   Samples are appended to growable int arrays per stage key;
   percentiles sort a copy on demand (profiles are read rarely and
   written per-trace, so the write path stays allocation-light and the
   read path stays exact).  Stage keys come from the span derivation,
   suffixed #2/#3/... on repeats within a trace so a stage key appears
   at most once per trace — that is what makes per-stage p50s sum to
   the e2e p50 on a homogeneous workload. *)

type stats = {
  count : int;
  p50 : int;
  p95 : int;
  p99 : int;
  mean : float;
  total : int;
}

type samples = { mutable data : int array; mutable len : int }

let samples_create () = { data = Array.make 16 0; len = 0 }

let samples_push s v =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let nearest_rank sorted n p =
  if n = 0 then 0
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let stats_of samples =
  if samples.len = 0 then None
  else begin
    let sorted = Array.sub samples.data 0 samples.len in
    Array.sort compare sorted;
    let n = samples.len in
    let total = Array.fold_left ( + ) 0 sorted in
    Some
      {
        count = n;
        p50 = nearest_rank sorted n 50.0;
        p95 = nearest_rank sorted n 95.0;
        p99 = nearest_rank sorted n 99.0;
        mean = float_of_int total /. float_of_int n;
        total;
      }
  end

type t = {
  latency : (string, samples) Hashtbl.t;
  cycles : (string, samples) Hashtbl.t;
  mutable stage_order : string list;  (* reversed first-appearance *)
  e2e_samples : samples;
  mutable traces : int;
}

let create () =
  {
    latency = Hashtbl.create 32;
    cycles = Hashtbl.create 32;
    stage_order = [];
    e2e_samples = samples_create ();
    traces = 0;
  }

let stage_samples t key =
  match Hashtbl.find_opt t.latency key with
  | Some s -> s
  | None ->
      let s = samples_create () in
      Hashtbl.replace t.latency key s;
      t.stage_order <- key :: t.stage_order;
      s

let cycle_samples t key =
  match Hashtbl.find_opt t.cycles key with
  | Some s -> s
  | None ->
      let s = samples_create () in
      Hashtbl.replace t.cycles key s;
      s

let record_trace ?stage_of t trace =
  match Span.of_trace ?stage_of trace with
  | [] -> ()
  | root :: children ->
      t.traces <- t.traces + 1;
      samples_push t.e2e_samples (Span.duration_ns root);
      (* Leaves only: stage spans (have a component) and transit spans;
         visit spans would double-count their stages. *)
      let parents = Hashtbl.create 16 in
      List.iter
        (fun (s : Span.t) ->
          match s.Span.parent with
          | Some p -> Hashtbl.replace parents p ()
          | None -> ())
        children;
      let seen = Hashtbl.create 16 in
      List.iter
        (fun (s : Span.t) ->
          if not (Hashtbl.mem parents s.Span.id) then begin
            let occurrence =
              match Hashtbl.find_opt seen s.Span.name with
              | None ->
                  Hashtbl.replace seen s.Span.name 1;
                  1
              | Some k ->
                  Hashtbl.replace seen s.Span.name (k + 1);
                  k + 1
            in
            let key =
              if occurrence = 1 then s.Span.name
              else Printf.sprintf "%s#%d" s.Span.name occurrence
            in
            samples_push (stage_samples t key) (Span.duration_ns s);
            if s.Span.cycles > 0 then
              samples_push (cycle_samples t key) s.Span.cycles
          end)
        children

let record_traces ?stage_of t traces =
  List.iter (record_trace ?stage_of t) traces

let traces_recorded t = t.traces
let stages t = List.rev t.stage_order

let stage_stats t ~stage =
  Option.bind (Hashtbl.find_opt t.latency stage) stats_of

let stage_cycles t ~stage =
  Option.bind (Hashtbl.find_opt t.cycles stage) stats_of

let e2e t = stats_of t.e2e_samples

let p50_sum_ns t =
  List.fold_left
    (fun acc stage ->
      match stage_stats t ~stage with Some s -> acc + s.p50 | None -> acc)
    0 (stages t)

let publish ?(registry = Registry.default) ?(prefix = "harmless") t =
  let observe_all name ?labels samples =
    let h = Registry.Histogram.v ~registry ?labels name in
    for i = 0 to samples.len - 1 do
      Registry.Histogram.observe h samples.data.(i)
    done
  in
  List.iter
    (fun stage ->
      (match Hashtbl.find_opt t.latency stage with
      | Some s ->
          observe_all
            (prefix ^ "_stage_latency_ns")
            ~labels:[ ("stage", stage) ]
            s
      | None -> ());
      match Hashtbl.find_opt t.cycles stage with
      | Some s ->
          observe_all (prefix ^ "_stage_cycles") ~labels:[ ("stage", stage) ] s
      | None -> ())
    (stages t);
  observe_all (prefix ^ "_e2e_latency_ns") t.e2e_samples

(* ---- the attribution table ---- *)

let pp_ns ns =
  if ns < 1_000 then Printf.sprintf "%dns" ns
  else if ns < 1_000_000 then Printf.sprintf "%.2fus" (float_of_int ns /. 1e3)
  else Printf.sprintf "%.3fms" (float_of_int ns /. 1e6)

let attribution_table t =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let sum = p50_sum_ns t in
  add "%-28s %6s %10s %10s %10s %7s\n" "stage" "count" "p50" "p95" "p99"
    "share";
  add "%s\n" (String.make 76 '-');
  List.iter
    (fun stage ->
      match stage_stats t ~stage with
      | None -> ()
      | Some s ->
          let share =
            if sum = 0 then 0.0
            else 100.0 *. float_of_int s.p50 /. float_of_int sum
          in
          add "%-28s %6d %10s %10s %10s %6.1f%%\n" stage s.count
            (pp_ns s.p50) (pp_ns s.p95) (pp_ns s.p99) share)
    (stages t);
  add "%s\n" (String.make 76 '-');
  (match e2e t with
  | None -> add "no traces recorded\n"
  | Some e ->
      let cover =
        if e.p50 = 0 then 100.0
        else 100.0 *. float_of_int sum /. float_of_int e.p50
      in
      add "%-28s %6d %10s %10s %10s\n" "end-to-end (measured)" e.count
        (pp_ns e.p50) (pp_ns e.p95) (pp_ns e.p99);
      add "stage p50 sum %s attributes %.1f%% of the measured e2e p50 %s\n"
        (pp_ns sum) cover (pp_ns e.p50));
  Buffer.contents buf
