open Simnet
open Openflow

type config = {
  latency : Sim_time.span;
  loss : float;
  seed : int;
  keepalive_interval : Sim_time.span option;
  echo_timeout : Sim_time.span;
  reconnect_base : Sim_time.span;
  reconnect_max : Sim_time.span;
  max_in_flight : int;
}

let default_config =
  {
    latency = Sim_time.us 200;
    loss = 0.0;
    seed = 7;
    keepalive_interval = None;
    echo_timeout = Sim_time.ms 20;
    reconnect_base = Sim_time.ms 10;
    reconnect_max = Sim_time.ms 500;
    max_in_flight = 512;
  }

type state = Connected | Disconnected

type t = {
  engine : Engine.t;
  config : config;
  rng : Rng.t;
  switch : Softswitch.Soft_switch.t;
  to_controller : Of_message.t -> unit;
  mutable state : state;
  mutable down : bool;
  mutable last_heard : Sim_time.t;
  mutable in_flight : int;
  mutable dropped_to_switch : int;
  mutable dropped_to_controller : int;
  mutable queue_drops : int;
  mutable reconnects : int;
  mutable echo_seq : int;
  mutable on_reconnect : (unit -> unit) list;
}

let state t = t.state
let reconnects t = t.reconnects
let queue_drops t = t.queue_drops
let dropped_to_switch t = t.dropped_to_switch
let dropped_to_controller t = t.dropped_to_controller
let on_reconnect t f = t.on_reconnect <- t.on_reconnect @ [ f ]

(* Look the counters up by name each time rather than holding handles, so
   a [Registry.reset]/[clear] between experiments never leaves us
   incrementing a dangling series. *)
let switch_labels t = [ ("switch", Softswitch.Soft_switch.name t.switch) ]

(* Flight-recorder events for channel lifecycle.  Call sites guard on
   [Trace.enabled] so the disabled path stays allocation-free. *)
let event t ?level ?detail name =
  Telemetry.Trace.event ?level
    ~ts_ns:(Sim_time.to_ns (Engine.now t.engine))
    ~corr:
      (Telemetry.Trace.corr_of_string
         ("channel:" ^ Softswitch.Soft_switch.name t.switch))
    ?detail ~stream:"channel" name

let count_reconnect t =
  Telemetry.Registry.Counter.inc
    (Telemetry.Registry.Counter.v ~labels:(switch_labels t)
       ~help:"control-channel reconnections" "reconnects_total")

let count_drop t ~direction =
  Telemetry.Registry.Counter.inc
    (Telemetry.Registry.Counter.v
       ~labels:(("direction", direction) :: switch_labels t)
       ~help:"control messages lost on the channel"
       "channel_dropped_messages_total");
  if Telemetry.Trace.enabled () then
    event t ~level:Telemetry.Trace.Debug
      ~detail:(Softswitch.Soft_switch.name t.switch ^ " " ^ direction)
      "drop"

let lost t = t.config.loss > 0.0 && Rng.float t.rng 1.0 < t.config.loss

let deliver_to_controller t msg =
  if t.down || lost t then begin
    t.dropped_to_controller <- t.dropped_to_controller + 1;
    count_drop t ~direction:"to_controller"
  end
  else
    Engine.schedule_after t.engine t.config.latency (fun () ->
        (* Anything the switch says proves the connection is alive. *)
        t.last_heard <- Engine.now t.engine;
        t.to_controller msg)

let to_switch t msg =
  if t.state = Disconnected then begin
    t.dropped_to_switch <- t.dropped_to_switch + 1;
    count_drop t ~direction:"to_switch"
  end
  else if t.in_flight >= t.config.max_in_flight then begin
    (* Outbound queue full: TCP would block; we shed and count. *)
    t.queue_drops <- t.queue_drops + 1;
    t.dropped_to_switch <- t.dropped_to_switch + 1;
    count_drop t ~direction:"to_switch"
  end
  else begin
    t.in_flight <- t.in_flight + 1;
    let lost_in_transit = t.down || lost t in
    Engine.schedule_after t.engine t.config.latency (fun () ->
        t.in_flight <- t.in_flight - 1;
        if lost_in_transit then begin
          t.dropped_to_switch <- t.dropped_to_switch + 1;
          count_drop t ~direction:"to_switch"
        end
        else Softswitch.Soft_switch.handle_message t.switch msg)
  end

let mark_connected t =
  t.state <- Connected;
  t.last_heard <- Engine.now t.engine;
  Softswitch.Soft_switch.set_connected t.switch true

let backoff_delay t ~attempt =
  (* base * 2^(attempt-1), capped; the shift itself is capped so a long
     outage cannot overflow. *)
  let shifted = t.config.reconnect_base lsl min (attempt - 1) 20 in
  min t.config.reconnect_max shifted

let rec attempt_reconnect t ~attempt =
  Engine.schedule_after t.engine
    (backoff_delay t ~attempt)
    (fun () ->
      if t.state = Disconnected then
        if (not t.down) && Softswitch.Soft_switch.alive t.switch then begin
          mark_connected t;
          t.reconnects <- t.reconnects + 1;
          count_reconnect t;
          if Telemetry.Trace.enabled () then
            event t
              ~detail:
                (Printf.sprintf "%s attempt=%d"
                   (Softswitch.Soft_switch.name t.switch)
                   attempt)
              "reconnect";
          List.iter (fun f -> f ()) t.on_reconnect
        end
        else attempt_reconnect t ~attempt:(attempt + 1))

let mark_disconnected t =
  if t.state = Connected then begin
    t.state <- Disconnected;
    Softswitch.Soft_switch.set_connected t.switch false;
    if Telemetry.Trace.enabled () then
      event t ~level:Telemetry.Trace.Warn
        ~detail:(Softswitch.Soft_switch.name t.switch)
        "disconnect";
    attempt_reconnect t ~attempt:1
  end

let set_down t down =
  if t.down <> down then begin
    t.down <- down;
    (* With keepalive off there is no probe to notice the outage, so the
       blackhole is surfaced (and healed) synchronously. *)
    if Option.is_none t.config.keepalive_interval then
      if down then mark_disconnected t
      else if t.state = Disconnected then attempt_reconnect t ~attempt:1
  end

let rec keepalive_tick t ~interval =
  Engine.schedule_after t.engine interval (fun () ->
      (match t.state with
      | Connected ->
          if Sim_time.diff (Engine.now t.engine) t.last_heard
             > t.config.echo_timeout
          then mark_disconnected t
          else begin
            t.echo_seq <- t.echo_seq + 1;
            to_switch t (Of_message.Echo_request (string_of_int t.echo_seq))
          end
      | Disconnected -> () (* the reconnect loop is already probing *));
      keepalive_tick t ~interval)

let validate config =
  if config.loss < 0.0 || config.loss >= 1.0 then
    invalid_arg "Channel.connect: loss must be in [0, 1)";
  if config.latency < 0 then invalid_arg "Channel.connect: negative latency";
  if config.max_in_flight <= 0 then
    invalid_arg "Channel.connect: max_in_flight <= 0";
  if config.echo_timeout <= 0 then
    invalid_arg "Channel.connect: echo_timeout <= 0";
  if config.reconnect_base <= 0 || config.reconnect_max < config.reconnect_base
  then invalid_arg "Channel.connect: bad reconnect backoff";
  match config.keepalive_interval with
  | Some iv when iv <= 0 -> invalid_arg "Channel.connect: keepalive <= 0"
  | Some _ | None -> ()

let connect engine ?latency ?(config = default_config) ~switch ~to_controller
    () =
  let config =
    match latency with Some l -> { config with latency = l } | None -> config
  in
  validate config;
  let t =
    {
      engine;
      config;
      rng = Rng.create config.seed;
      switch;
      to_controller;
      state = Connected;
      down = false;
      last_heard = Engine.now engine;
      in_flight = 0;
      dropped_to_switch = 0;
      dropped_to_controller = 0;
      queue_drops = 0;
      reconnects = 0;
      echo_seq = 0;
      on_reconnect = [];
    }
  in
  Softswitch.Soft_switch.set_controller switch (deliver_to_controller t);
  Softswitch.Soft_switch.set_connected switch true;
  if Telemetry.Trace.enabled () then
    event t ~detail:(Softswitch.Soft_switch.name switch) "connect";
  (match config.keepalive_interval with
  | Some interval -> keepalive_tick t ~interval
  | None -> ());
  t
