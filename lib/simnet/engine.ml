(* Opt-in scheduler self-observation: queue depth and scheduling lag
   (how far the clock jumps to reach the next event) as time series,
   sampled every [sample_every]-th dispatch so a 10^7-event run doesn't
   drown in its own telemetry. *)
type telemetry = {
  queue_depth : Telemetry.Timeseries.t;
  sched_lag : Telemetry.Timeseries.t;
  sample_every : int;
}

type t = {
  queue : (unit -> unit) Event_queue.t;
  mutable clock : Sim_time.t;
  mutable executed : int;
  mutable telemetry : telemetry option;
}

let create () =
  {
    queue = Event_queue.create ();
    clock = Sim_time.zero;
    executed = 0;
    telemetry = None;
  }

let enable_telemetry ?(sample_every = 1) ?(capacity = 4096) t =
  if sample_every <= 0 then
    invalid_arg "Engine.enable_telemetry: sample_every must be positive";
  t.telemetry <-
    Some
      {
        queue_depth =
          Telemetry.Timeseries.create ~capacity ~name:"engine_queue_depth" ();
        sched_lag =
          Telemetry.Timeseries.create ~capacity ~name:"engine_sched_lag_ns" ();
        sample_every;
      }

let queue_depth_series t = Option.map (fun m -> m.queue_depth) t.telemetry
let scheduling_lag_series t = Option.map (fun m -> m.sched_lag) t.telemetry
let now t = t.clock

let schedule_at t time f =
  if Sim_time.compare time t.clock < 0 then
    invalid_arg "Engine.schedule_at: instant in the past";
  Event_queue.push t.queue time f

let schedule_after t span f =
  if span < 0 then invalid_arg "Engine.schedule_after: negative span";
  Event_queue.push t.queue (Sim_time.add t.clock span) f

let schedule_every t ?start period f =
  if period <= 0 then invalid_arg "Engine.schedule_every: period must be positive";
  let first = match start with None -> period | Some s -> s in
  if first < 0 then invalid_arg "Engine.schedule_every: negative start";
  let rec tick () = if f () then schedule_after t period tick in
  schedule_after t first tick

let step t =
  match Event_queue.pop t.queue with
  | None -> false
  | Some (time, f) ->
      (match t.telemetry with
      | Some m when t.executed mod m.sample_every = 0 ->
          let ts_ns = Sim_time.to_ns time in
          Telemetry.Timeseries.record m.queue_depth ~ts_ns
            (float_of_int (Event_queue.length t.queue));
          Telemetry.Timeseries.record m.sched_lag ~ts_ns
            (float_of_int (ts_ns - Sim_time.to_ns t.clock))
      | Some _ | None -> ());
      t.clock <- time;
      t.executed <- t.executed + 1;
      f ();
      true

let run ?until ?max_events t =
  let budget = ref (match max_events with None -> max_int | Some n -> n) in
  let continue = ref true in
  while !continue && !budget > 0 do
    match Event_queue.peek_time t.queue with
    | None -> continue := false
    | Some next -> (
        match until with
        | Some stop when Sim_time.compare next stop > 0 -> continue := false
        | Some _ | None ->
            ignore (step t);
            decr budget)
  done;
  match until with
  | Some stop when Sim_time.compare t.clock stop < 0 && !budget > 0 ->
      t.clock <- stop
  | Some _ | None -> ()

let pending t = Event_queue.length t.queue
let events_executed t = t.executed

let publish_metrics ?registry ?labels t =
  let set name v =
    Telemetry.Registry.Gauge.set_int
      (Telemetry.Registry.Gauge.v ?registry ?labels name)
      v
  in
  set "sim_now_ns" (Sim_time.to_ns t.clock);
  set "sim_events_executed" t.executed;
  set "sim_events_pending" (Event_queue.length t.queue);
  match t.telemetry with
  | None -> ()
  | Some m ->
      let last_of series name =
        match Telemetry.Timeseries.last series with
        | Some (_, v) -> set name (int_of_float v)
        | None -> ()
      in
      last_of m.queue_depth "sim_queue_depth_sampled";
      last_of m.sched_lag "sim_sched_lag_ns"
