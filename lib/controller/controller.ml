open Openflow

type t = {
  engine : Simnet.Engine.t;
  channel_latency : Simnet.Sim_time.span option;
  channel_config : Channel.config option;
  mutable apps : app list;
  switches : (int64, Channel.t) Hashtbl.t;
  (* State-bearing messages (flow/group/meter-mods) per datapath, newest
     first — replayed to resynchronize a switch after a reconnect. *)
  state_log : (int64, Of_message.t list ref) Hashtbl.t;
  mutable packet_ins : int;
  mutable packet_outs : int;
  mutable flow_mods_sent : int;
  mutable resyncs : int;
  mutable errors : string list; (* newest first *)
  mutable stats_waiters : (int64 * (Of_message.flow_stat list -> unit)) list;
  mutable port_stats_waiters : (int64 * (Of_message.port_stat list -> unit)) list;
  (* Outstanding controller-originated echoes: payloads are "rtt:<seq>",
     disjoint from the channel keepalive's integer payloads. *)
  mutable echo_waiters :
    (int64 * string * Simnet.Sim_time.t * (Simnet.Sim_time.span -> unit)) list;
  mutable echo_seq : int;
}

and app = {
  app_name : string;
  switch_up : t -> int64 -> unit;
  packet_in :
    t -> int64 -> in_port:int -> Of_message.packet_in_reason ->
    Netpkt.Packet.t -> bool;
  port_status : t -> int64 -> port:int -> up:bool -> unit;
}

let no_op_app name =
  {
    app_name = name;
    switch_up = (fun _ _ -> ());
    packet_in = (fun _ _ ~in_port:_ _ _ -> false);
    port_status = (fun _ _ ~port:_ ~up:_ -> ());
  }

let create engine ?channel_latency ?channel_config () =
  {
    engine;
    channel_latency;
    channel_config;
    apps = [];
    switches = Hashtbl.create 8;
    state_log = Hashtbl.create 8;
    packet_ins = 0;
    packet_outs = 0;
    flow_mods_sent = 0;
    resyncs = 0;
    errors = [];
    stats_waiters = [];
    port_stats_waiters = [];
    echo_waiters = [];
    echo_seq = 0;
  }

let engine t = t.engine

let add_app t app = t.apps <- t.apps @ [ app ]

let channel t dpid =
  match Hashtbl.find_opt t.switches dpid with
  | Some ch -> ch
  | None -> raise Not_found

let log_state t dpid msg =
  match msg with
  | Of_message.Flow_mod _ | Of_message.Group_mod _ | Of_message.Meter_mod _ ->
      let log =
        match Hashtbl.find_opt t.state_log dpid with
        | Some log -> log
        | None ->
            let log = ref [] in
            Hashtbl.replace t.state_log dpid log;
            log
      in
      log := msg :: !log
  | _ -> ()

let send t dpid msg =
  log_state t dpid msg;
  Channel.to_switch (channel t dpid) msg

let resync t dpid ch =
  t.resyncs <- t.resyncs + 1;
  Channel.to_switch ch Of_message.Hello;
  Channel.to_switch ch Of_message.Features_request;
  (* Replay in original send order; OFPFC_ADD replaces identical
     match+priority entries, so the replay is idempotent on a switch
     that kept its tables and restorative on one that lost them. *)
  match Hashtbl.find_opt t.state_log dpid with
  | Some log -> List.iter (Channel.to_switch ch) (List.rev !log)
  | None -> ()

let install t dpid fm =
  t.flow_mods_sent <- t.flow_mods_sent + 1;
  send t dpid (Of_message.Flow_mod fm)

let send_all t dpid msgs =
  List.iter
    (function
      | Of_message.Flow_mod fm -> install t dpid fm
      | msg -> send t dpid msg)
    msgs

let policy_app name compiled =
  let msgs = Policy.Compile.messages compiled in
  { (no_op_app name) with switch_up = (fun t dpid -> send_all t dpid msgs) }

let packet_out t dpid ?in_port ~actions packet =
  t.packet_outs <- t.packet_outs + 1;
  if Telemetry.Trace.enabled () then
    Telemetry.Trace.emit
      ~ts_ns:(Simnet.Sim_time.to_ns (Simnet.Engine.now t.engine))
      ~component:"controller" ~layer:Telemetry.Trace.Controller
      ~stage:"packet_out" ?port:in_port
      ~cycles:0 (* control-plane CPU is not part of the datapath model *)
      ~detail:(Printf.sprintf "dpid=%Ld actions=%d" dpid (List.length actions))
      packet;
  send t dpid (Of_message.Packet_out { in_port; actions; packet })

let dispatch_packet_in t dpid ~in_port reason packet =
  t.packet_ins <- t.packet_ins + 1;
  if Telemetry.Trace.enabled () then begin
    let ts_ns = Simnet.Sim_time.to_ns (Simnet.Engine.now t.engine) in
    Telemetry.Trace.emit ~ts_ns ~component:"controller"
      ~layer:Telemetry.Trace.Controller ~stage:"packet_in" ~port:in_port
      ~cycles:0 (* control-plane CPU is not part of the datapath model *)
      ~detail:
        (Printf.sprintf "dpid=%Ld reason=%s" dpid
           (match reason with
           | Of_message.No_match -> "no_match"
           | Of_message.Action_to_controller -> "action"))
      packet;
    (* The control↔dataplane join: the event's correlation id is the
       packet's trace key, so a post-mortem can pair this decision with
       the packet's hop spans. *)
    Telemetry.Trace.event ~level:Telemetry.Trace.Debug ~ts_ns
      ~corr:(Telemetry.Trace.key_of_packet packet)
      ~detail:(Printf.sprintf "dpid:%Lx port=%d" dpid in_port)
      ~stream:"controller" "packet-in"
  end;
  let rec offer = function
    | [] -> ()
    | app :: rest ->
        if not (app.packet_in t dpid ~in_port reason packet) then offer rest
  in
  offer t.apps

let handle_switch_message t dpid msg =
  match msg with
  | Of_message.Features_reply _ ->
      List.iter (fun app -> app.switch_up t dpid) t.apps
  | Of_message.Packet_in { in_port; reason; packet } ->
      dispatch_packet_in t dpid ~in_port reason packet
  | Of_message.Port_status { port_no; up } ->
      List.iter (fun app -> app.port_status t dpid ~port:port_no ~up) t.apps
  | Of_message.Error e -> t.errors <- e :: t.errors
  | Of_message.Flow_stats_reply stats ->
      let mine, rest = List.partition (fun (d, _) -> Int64.equal d dpid) t.stats_waiters in
      (match mine with
      | (_, k) :: remaining ->
          t.stats_waiters <- List.map (fun w -> w) remaining @ rest;
          k stats
      | [] -> ())
  | Of_message.Port_stats_reply stats ->
      let mine, rest =
        List.partition (fun (d, _) -> Int64.equal d dpid) t.port_stats_waiters
      in
      (match mine with
      | (_, k) :: remaining ->
          t.port_stats_waiters <- remaining @ rest;
          k stats
      | [] -> ())
  | Of_message.Echo_reply payload ->
      (* Match on (dpid, payload): channel keepalives use bare integer
         payloads and never collide with our "rtt:<seq>" probes. *)
      let rec take acc = function
        | [] -> ()
        | (d, p, sent, k) :: rest when Int64.equal d dpid && String.equal p payload ->
            t.echo_waiters <- List.rev_append acc rest;
            k (Simnet.Sim_time.diff (Simnet.Engine.now t.engine) sent)
        | w :: rest -> take (w :: acc) rest
      in
      take [] t.echo_waiters
  | Of_message.Hello | Of_message.Barrier_reply _ -> ()
  | Of_message.Echo_request payload -> send t dpid (Of_message.Echo_reply payload)
  | Of_message.Features_request | Of_message.Flow_mod _ | Of_message.Group_mod _
  | Of_message.Meter_mod _
  | Of_message.Packet_out _ | Of_message.Flow_stats_request _
  | Of_message.Port_stats_request | Of_message.Barrier_request _ ->
      (* switch-bound messages never arrive here *)
      ()

let attach_switch t switch =
  let dpid = Softswitch.Soft_switch.datapath_id switch in
  let to_controller msg = handle_switch_message t dpid msg in
  let ch =
    match (t.channel_latency, t.channel_config) with
    | Some latency, Some config ->
        Channel.connect t.engine ~latency ~config ~switch ~to_controller ()
    | Some latency, None ->
        Channel.connect t.engine ~latency ~switch ~to_controller ()
    | None, Some config ->
        Channel.connect t.engine ~config ~switch ~to_controller ()
    | None, None -> Channel.connect t.engine ~switch ~to_controller ()
  in
  Hashtbl.replace t.switches dpid ch;
  Channel.on_reconnect ch (fun () -> resync t dpid ch);
  Channel.to_switch ch Of_message.Hello;
  Channel.to_switch ch Of_message.Features_request;
  dpid

let packet_ins_received t = t.packet_ins
let errors_received t = List.rev t.errors
let resyncs t = t.resyncs

let publish_metrics ?registry ?(labels = []) t =
  Telemetry.Registry.publish_ints ?registry ~prefix:"controller" ~labels
    [
      ("packet_ins", t.packet_ins);
      ("packet_outs", t.packet_outs);
      ("flow_mods_sent", t.flow_mods_sent);
      ("resyncs", t.resyncs);
      ("errors", List.length t.errors);
      ("switches", Hashtbl.length t.switches);
      ("apps", List.length t.apps);
    ]

let flow_stats t dpid ~on_reply =
  t.stats_waiters <- t.stats_waiters @ [ (dpid, on_reply) ];
  send t dpid (Of_message.Flow_stats_request { table_id = None })

let port_stats t dpid ~on_reply =
  t.port_stats_waiters <- t.port_stats_waiters @ [ (dpid, on_reply) ];
  send t dpid Of_message.Port_stats_request

let measure_rtt t dpid ~on_reply =
  t.echo_seq <- t.echo_seq + 1;
  let payload = Printf.sprintf "rtt:%d" t.echo_seq in
  t.echo_waiters <-
    t.echo_waiters @ [ (dpid, payload, Simnet.Engine.now t.engine, on_reply) ];
  send t dpid (Of_message.Echo_request payload)
