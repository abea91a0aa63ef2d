(* Opt-in scheduler self-observation: queue depth and scheduling lag
   (how far the clock jumps to reach the next event) as time series,
   sampled every [sample_every]-th dispatch so a 10^7-event run doesn't
   drown in its own telemetry. *)
type telemetry = {
  queue_depth : Telemetry.Timeseries.t;
  sched_lag : Telemetry.Timeseries.t;
  sample_every : int;
}

type sink = int -> Netpkt.Packet.t -> unit

(* Fillers for the fields a slot does not use, shared so that a free slot
   or a thunk slot pins no packet and no closure.  A slot whose sink is
   [no_sink] is a thunk event. *)
let no_thunk () = ()
let no_sink (_ : int) (_ : Netpkt.Packet.t) = ()

let no_packet =
  Netpkt.Packet.make ~dst:Netpkt.Mac_addr.zero ~src:Netpkt.Mac_addr.zero
    (Netpkt.Packet.Raw (Netpkt.Ethertype.of_int 0, ""))

(* Events live in numbered slots, one array per field.  [heap.(0 ..
   size-1)] is a binary min-heap of slot numbers ordered by (time, seq);
   [heap.(size ..)] is the stack of free slots.  [seq] is unique, so the
   order is total and ties at one instant run in scheduling order. *)
type t = {
  mutable times : Sim_time.t array;
  mutable seqs : int array;
  mutable thunks : (unit -> unit) array;
  mutable sinks : sink array;
  mutable ports : int array;
  mutable packets : Netpkt.Packet.t array;
  mutable heap : int array;
  mutable size : int;
  mutable next_seq : int;
  mutable clock : Sim_time.t;
  mutable executed : int;
  mutable telemetry : telemetry option;
}

let create () =
  let n = 16 in
  {
    times = Array.make n Sim_time.zero;
    seqs = Array.make n 0;
    thunks = Array.make n no_thunk;
    sinks = Array.make n no_sink;
    ports = Array.make n 0;
    packets = Array.make n no_packet;
    heap = Array.init n Fun.id;
    size = 0;
    next_seq = 0;
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

(* ---- The slot heap ---- *)

let before t a b =
  let ta = (t.times.(a) :> int) and tb = (t.times.(b) :> int) in
  ta < tb || (ta = tb && t.seqs.(a) < t.seqs.(b))

let grow t =
  let cap = Array.length t.heap in
  let bigger a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.times <- bigger t.times Sim_time.zero;
  t.seqs <- bigger t.seqs 0;
  t.thunks <- bigger t.thunks no_thunk;
  t.sinks <- bigger t.sinks no_sink;
  t.ports <- bigger t.ports 0;
  t.packets <- bigger t.packets no_packet;
  (* Every slot is pending, so the old slots all sit in the heap and the
     new ones make up the free stack. *)
  t.heap <- Array.init (2 * cap) (fun i -> if i < cap then t.heap.(i) else i)

(* Move [slot] up from the hole at [i] to its place. *)
let rec sift_up t slot i =
  if i = 0 then t.heap.(0) <- slot
  else begin
    let p = (i - 1) / 2 in
    let ps = t.heap.(p) in
    if before t slot ps then begin
      t.heap.(i) <- ps;
      sift_up t slot p
    end
    else t.heap.(i) <- slot
  end

(* Move [slot] down from the hole at [i] to its place. *)
let rec sift_down t slot i =
  let l = (2 * i) + 1 in
  if l >= t.size then t.heap.(i) <- slot
  else begin
    let r = l + 1 in
    let c = if r < t.size && before t t.heap.(r) t.heap.(l) then r else l in
    let cs = t.heap.(c) in
    if before t cs slot then begin
      t.heap.(i) <- cs;
      sift_down t slot c
    end
    else t.heap.(i) <- slot
  end

(* Take a free slot for an event at [time]; the caller fills its payload
   and then calls [enqueue]. *)
let take_slot t time =
  if t.size = Array.length t.heap then grow t;
  let slot = t.heap.(t.size) in
  t.times.(slot) <- time;
  t.seqs.(slot) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  slot

let enqueue t slot =
  let i = t.size in
  t.size <- i + 1;
  sift_up t slot i

(* ---- Scheduling ---- *)

let schedule_at t time f =
  if Sim_time.compare time t.clock < 0 then
    invalid_arg "Engine.schedule_at: instant in the past";
  let slot = take_slot t time in
  t.thunks.(slot) <- f;
  enqueue t slot

let schedule_after t span f =
  if span < 0 then invalid_arg "Engine.schedule_after: negative span";
  schedule_at t (Sim_time.add t.clock span) f

let deliver_at t time sink port pkt =
  if Sim_time.compare time t.clock < 0 then
    invalid_arg "Engine.deliver_at: instant in the past";
  let slot = take_slot t time in
  t.sinks.(slot) <- sink;
  t.ports.(slot) <- port;
  t.packets.(slot) <- pkt;
  enqueue t slot

let schedule_every t ?start period f =
  if period <= 0 then invalid_arg "Engine.schedule_every: period must be positive";
  let first = match start with None -> period | Some s -> s in
  if first < 0 then invalid_arg "Engine.schedule_every: negative start";
  let rec tick () = if f () then schedule_after t period tick in
  schedule_after t first tick

(* ---- Dispatch ---- *)

(* Pop the earliest event and run it.  The slot is freed and its fields
   reset before the event runs, so the event may schedule into it. *)
let run_top t =
  let slot = t.heap.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then sift_down t t.heap.(last) 0;
  t.heap.(last) <- slot;
  let time = t.times.(slot) in
  (match t.telemetry with
  | Some m when t.executed mod m.sample_every = 0 ->
      let ts_ns = Sim_time.to_ns time in
      Telemetry.Timeseries.record m.queue_depth ~ts_ns (float_of_int t.size);
      Telemetry.Timeseries.record m.sched_lag ~ts_ns
        (float_of_int (ts_ns - Sim_time.to_ns t.clock))
  | Some _ | None -> ());
  t.clock <- time;
  t.executed <- t.executed + 1;
  let sink = t.sinks.(slot) in
  if sink == no_sink then begin
    let f = t.thunks.(slot) in
    t.thunks.(slot) <- no_thunk;
    f ()
  end
  else begin
    let port = t.ports.(slot) and pkt = t.packets.(slot) in
    t.sinks.(slot) <- no_sink;
    t.packets.(slot) <- no_packet;
    sink port pkt
  end

let step t =
  if t.size = 0 then false
  else begin
    run_top t;
    true
  end

let run ?until ?max_events t =
  let limit = match until with None -> max_int | Some s -> (s : Sim_time.t :> int) in
  let budget = ref (match max_events with None -> max_int | Some n -> n) in
  while !budget > 0 && t.size > 0 && (t.times.(t.heap.(0)) :> int) <= limit do
    run_top t;
    decr budget
  done;
  match until with
  | Some stop when Sim_time.compare t.clock stop < 0 && !budget > 0 ->
      t.clock <- stop
  | Some _ | None -> ()

let pending t = t.size
let events_executed t = t.executed

let publish_metrics ?registry ?labels t =
  let set name v =
    Telemetry.Registry.Gauge.set_int
      (Telemetry.Registry.Gauge.v ?registry ?labels name)
      v
  in
  set "sim_now_ns" (Sim_time.to_ns t.clock);
  set "sim_events_executed" t.executed;
  set "sim_events_pending" t.size;
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
