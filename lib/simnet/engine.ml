(* Opt-in scheduler self-observation: queue depth and scheduling lag
   (how far the clock jumps to reach the next event) as time series,
   sampled every [sample_every]-th dispatch so a 10^7-event run doesn't
   drown in its own telemetry. *)
type telemetry = {
  queue_depth : Telemetry.Timeseries.t;
  sched_lag : Telemetry.Timeseries.t;
  sample_every : int;
}

(* Two binary heaps feed one (instant, seq) order; each entry is three
   ints, (instant, seq, id), so moving one stores no pointer.

   [slots.(0 .. 3*size-1)] is the heap of pending thunks, whose id is a
   slot of [thunks]; [free.(size ..)] is the stack of free slots.

   Deliveries wait in their sink's lane, a FIFO ring whose instants never
   decrease, so a lane is in order as it fills.  [lanes.(0 ..
   3*lanes_size-1)] is the heap of the non-empty lanes' heads, whose id
   is the sink's index in [sinks].

   [seq] is unique across both heaps, so the order is total and ties at
   one instant run in scheduling order, whichever queue holds them. *)
type t = {
  mutable thunks : (unit -> unit) array;
  mutable free : int array;
  mutable slots : int array;
  mutable size : int;
  mutable sinks : sink array;
  mutable sink_count : int;
  mutable lanes : int array;
  mutable lanes_size : int;
  mutable queued : int;  (* deliveries in all lanes *)
  mutable next_seq : int;
  mutable clock : Sim_time.t;
  mutable executed : int;
  mutable telemetry : telemetry option;
}

(* A lane: [count] deliveries from ring position [head], three ints each
   in [cells] (instant, seq, port) and the frame in [packets].  The ring
   is allocated at the first delivery and doubles when full. *)
and sink = {
  engine : t;
  index : int;
  run : int -> Netpkt.Packet.t -> unit;
  mutable cells : int array;
  mutable packets : Netpkt.Packet.t array;
  mutable head : int;
  mutable count : int;
  mutable last : int;  (* instant of the newest queued delivery *)
}

(* Shared filler for free slots and popped lane cells, so that neither
   pins a closure or a frame. *)
let no_thunk () = ()

let no_packet =
  Netpkt.Packet.make ~dst:Netpkt.Mac_addr.zero ~src:Netpkt.Mac_addr.zero
    (Netpkt.Packet.Raw (Netpkt.Ethertype.of_int 0, ""))

let create () =
  let n = 16 in
  {
    thunks = Array.make n no_thunk;
    free = Array.init n Fun.id;
    slots = Array.make (3 * n) 0;
    size = 0;
    sinks = [||];
    sink_count = 0;
    lanes = [||];
    lanes_size = 0;
    queued = 0;
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
let pending t = t.size + t.queued
let events_executed t = t.executed

let[@inline] next_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

(* ---- Heaps of (instant, seq, id) entries ---- *)

let[@inline] set (h : int array) i time seq id =
  let b = 3 * i in
  h.(b) <- time;
  h.(b + 1) <- seq;
  h.(b + 2) <- id

(* Whether entry [i] of [h] comes before (time, seq). *)
let[@inline] before (h : int array) i (time : int) seq =
  let b = 3 * i in
  h.(b) < time || (h.(b) = time && h.(b + 1) < seq)

(* Put (time, seq, id) into the hole at [i], moving it up. *)
let rec up h time seq id i =
  let p = (i - 1) / 2 in
  if i = 0 || before h p time seq then set h i time seq id
  else begin
    set h i h.(3 * p) h.((3 * p) + 1) h.((3 * p) + 2);
    up h time seq id p
  end

(* Put (time, seq, id) into the hole at [i] of the [n]-entry heap [h],
   moving it down. *)
let rec down h n time seq id i =
  let l = (2 * i) + 1 in
  let c = if l + 1 < n && before h (l + 1) h.(3 * l) h.((3 * l) + 1) then l + 1 else l in
  if c >= n || not (before h c time seq) then set h i time seq id
  else begin
    set h i h.(3 * c) h.((3 * c) + 1) h.((3 * c) + 2);
    down h n time seq id c
  end

(* Drop the top of the [n]-entry heap [h]. *)
let pop_top h n =
  let b = 3 * (n - 1) in
  if n > 1 then down h (n - 1) h.(b) h.(b + 1) h.(b + 2) 0

let push_thunk t time f =
  let cap = Array.length t.thunks in
  if t.size = cap then begin
    t.thunks <- Array.append t.thunks (Array.make cap no_thunk);
    t.slots <- Array.append t.slots (Array.make (3 * cap) 0);
    (* Every slot is taken, so the new ones make up the free stack. *)
    t.free <- Array.init (2 * cap) Fun.id
  end;
  let slot = t.free.(t.size) in
  t.thunks.(slot) <- f;
  t.size <- t.size + 1;
  up t.slots (time : Sim_time.t :> int) (next_seq t) slot (t.size - 1)

(* ---- Sinks ---- *)

let sink t run =
  let s =
    { engine = t; index = t.sink_count; run; cells = [||]; packets = [||];
      head = 0; count = 0; last = 0 }
  in
  if t.sink_count = Array.length t.sinks then begin
    let more = Int.max 8 t.sink_count in
    t.sinks <- Array.append t.sinks (Array.make more s);
    t.lanes <- Array.append t.lanes (Array.make (3 * more) 0)
  end;
  t.sinks.(t.sink_count) <- s;
  t.sink_count <- t.sink_count + 1;
  s

(* Double [s]'s ring (8 cells at first), its deliveries from cell 0. *)
let grow_lane s =
  let cap = Array.length s.packets in
  let cells = Array.make (3 * Int.max 8 (2 * cap)) 0 in
  let packets = Array.make (Int.max 8 (2 * cap)) no_packet in
  for k = 0 to s.count - 1 do
    let i = (s.head + k) land (cap - 1) in
    set cells k s.cells.(3 * i) s.cells.((3 * i) + 1) s.cells.((3 * i) + 2);
    packets.(k) <- s.packets.(i)
  done;
  s.cells <- cells;
  s.packets <- packets;
  s.head <- 0

(* ---- Scheduling ---- *)

let schedule_at t time f =
  if (time : Sim_time.t :> int) < (t.clock :> int) then
    invalid_arg "Engine.schedule_at: instant in the past";
  push_thunk t time f

let schedule_after t span f =
  if span < 0 then invalid_arg "Engine.schedule_after: negative span";
  schedule_at t (Sim_time.add t.clock span) f

let deliver_at t time s port pkt =
  if s.engine != t then invalid_arg "Engine.deliver_at: sink of another engine";
  let at = (time : Sim_time.t :> int) in
  if at < (t.clock :> int) then invalid_arg "Engine.deliver_at: instant in the past";
  if s.count > 0 && at < s.last then
    (* Earlier than the lane's newest delivery (link jitter): the thunk
       heap keeps it in order, at the cost of a closure. *)
    push_thunk t time (fun () -> s.run port pkt)
  else begin
    if s.count = Array.length s.packets then grow_lane s;
    let i = (s.head + s.count) land (Array.length s.packets - 1) in
    let seq = next_seq t in
    set s.cells i at seq port;
    s.packets.(i) <- pkt;
    s.last <- at;
    s.count <- s.count + 1;
    t.queued <- t.queued + 1;
    if s.count = 1 then begin
      t.lanes_size <- t.lanes_size + 1;
      up t.lanes at seq s.index (t.lanes_size - 1)
    end
  end

let schedule_every t ?start period f =
  if period <= 0 then invalid_arg "Engine.schedule_every: period must be positive";
  let first = match start with None -> period | Some s -> s in
  if first < 0 then invalid_arg "Engine.schedule_every: negative start";
  let rec tick () = if f () then schedule_after t period tick in
  schedule_after t first tick

(* ---- Dispatch ---- *)

(* Whether the earliest pending event heads a lane; [pending t > 0]. *)
let[@inline] lane_first t =
  t.lanes_size > 0 && (t.size = 0 || before t.lanes 0 t.slots.(0) t.slots.(1))

let record_telemetry t m ts_ns =
  Telemetry.Timeseries.record m.queue_depth ~ts_ns (float_of_int (pending t));
  Telemetry.Timeseries.record m.sched_lag ~ts_ns
    (float_of_int (ts_ns - Sim_time.to_ns t.clock))

(* Move the clock to [time], the instant of the event about to run, after
   it has left its queue. *)
let[@inline] advance t time =
  (match t.telemetry with
  | Some m when t.executed mod m.sample_every = 0 -> record_telemetry t m time
  | Some _ | None -> ());
  t.clock <- Sim_time.of_ns time;
  t.executed <- t.executed + 1

(* Pop the earliest thunk and run it.  The slot is freed and reset before
   the thunk runs, so the thunk may schedule into it. *)
let run_slot t =
  let h = t.slots in
  let time = h.(0) and slot = h.(2) in
  pop_top h t.size;
  t.size <- t.size - 1;
  t.free.(t.size) <- slot;
  let f = t.thunks.(slot) in
  t.thunks.(slot) <- no_thunk;
  advance t time;
  f ()

(* Pop the earliest lane head and run its delivery.  The lane's next
   delivery, if any, takes its place in the lane heap; the popped cell
   is reset before the delivery runs. *)
let run_lane t =
  let h = t.lanes in
  let time = h.(0) and s = t.sinks.(h.(2)) in
  let i = s.head in
  let port = s.cells.((3 * i) + 2) and pkt = s.packets.(i) in
  s.packets.(i) <- no_packet;
  s.head <- (i + 1) land (Array.length s.packets - 1);
  s.count <- s.count - 1;
  t.queued <- t.queued - 1;
  if s.count > 0 then begin
    let b = 3 * s.head in
    down h t.lanes_size s.cells.(b) s.cells.(b + 1) s.index 0
  end
  else begin
    pop_top h t.lanes_size;
    t.lanes_size <- t.lanes_size - 1
  end;
  advance t time;
  s.run port pkt

let step t =
  if pending t = 0 then false
  else begin
    if lane_first t then run_lane t else run_slot t;
    true
  end

(* Run events until [budget] is spent, the queues drain or the next event
   lies after [limit]; return what is left of [budget]. *)
let rec run_until t limit budget =
  if budget <= 0 || pending t = 0 then budget
  else
    let lane = lane_first t in
    if (if lane then t.lanes.(0) else t.slots.(0)) > limit then budget
    else begin
      if lane then run_lane t else run_slot t;
      run_until t limit (budget - 1)
    end

let run ?until ?max_events t =
  let limit = match until with None -> max_int | Some s -> (s : Sim_time.t :> int) in
  let budget = run_until t limit (match max_events with None -> max_int | Some n -> n) in
  match until with
  | Some stop when (t.clock :> int) < (stop : Sim_time.t :> int) && budget > 0 ->
      t.clock <- stop
  | Some _ | None -> ()

let publish_metrics ?registry ?labels t =
  let set name v =
    Telemetry.Registry.Gauge.set_int
      (Telemetry.Registry.Gauge.v ?registry ?labels name)
      v
  in
  set "sim_now_ns" (Sim_time.to_ns t.clock);
  set "sim_events_executed" t.executed;
  set "sim_events_pending" (pending t);
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
