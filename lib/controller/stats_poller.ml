open Openflow

type flow_series = {
  mutable fs_latest : Of_message.flow_stat;
  fs_bytes : Telemetry.Timeseries.t;
  fs_packets : Telemetry.Timeseries.t;
}

type t = {
  ctrl : Controller.t;
  poller_dpid : int64;
  period : Simnet.Sim_time.span;
  retry : Mgmt.Retry.policy;
  capacity : int;
  flows : (string, flow_series) Hashtbl.t;
  port_rx : (int, Telemetry.Timeseries.t) Hashtbl.t;
  port_tx : (int, Telemetry.Timeseries.t) Hashtbl.t;
  rtt : Telemetry.Timeseries.t;
  mutable latest_flow_reply : Of_message.flow_stat list;
  mutable latest_port_reply : Of_message.port_stat list;
  mutable rounds : int;
  mutable flow_reply_count : int;
  mutable port_reply_count : int;
  mutable rtt_reply_count : int;
  (* Snapshot of [flow_reply_count] at the previous tick: if it has not
     advanced by the next tick, that round failed. *)
  mutable replies_at_last_tick : int;
  mutable failures : int;
  mutable running : bool;
  (* Generation counter: [stop] then [start] must not leave the old
     tick chain alive. *)
  mutable epoch : int;
}

let create ?(period = Simnet.Sim_time.ms 10) ?(retry = Mgmt.Retry.default)
    ?(capacity = 1024) ctrl dpid =
  if period <= 0 then invalid_arg "Stats_poller.create: period must be positive";
  {
    ctrl;
    poller_dpid = dpid;
    period;
    retry;
    capacity;
    flows = Hashtbl.create 32;
    port_rx = Hashtbl.create 8;
    port_tx = Hashtbl.create 8;
    rtt =
      Telemetry.Timeseries.create ~capacity:256
        ~name:(Printf.sprintf "rtt_ns{dpid=%Ld}" dpid)
        ();
    latest_flow_reply = [];
    latest_port_reply = [];
    rounds = 0;
    flow_reply_count = 0;
    port_reply_count = 0;
    rtt_reply_count = 0;
    replies_at_last_tick = 0;
    failures = 0;
    running = false;
    epoch = 0;
  }

let dpid t = t.poller_dpid

let now_ns t =
  Simnet.Sim_time.to_ns (Simnet.Engine.now (Controller.engine t.ctrl))

let flow_key (s : Of_message.flow_stat) =
  Format.asprintf "t%d p%d %a" s.Of_message.stat_table_id
    s.Of_message.stat_priority Of_match.pp s.Of_message.stat_match

let series t tbl key ~name =
  match Hashtbl.find_opt tbl key with
  | Some s -> s
  | None ->
      let s = Telemetry.Timeseries.create ~capacity:t.capacity ~name () in
      Hashtbl.replace tbl key s;
      s

let record_flows t stats =
  t.flow_reply_count <- t.flow_reply_count + 1;
  t.failures <- 0;
  t.latest_flow_reply <- stats;
  let ts_ns = now_ns t in
  List.iter
    (fun (s : Of_message.flow_stat) ->
      let key = flow_key s in
      let fs =
        match Hashtbl.find_opt t.flows key with
        | Some fs -> fs
        | None ->
            let fs =
              {
                fs_latest = s;
                fs_bytes =
                  Telemetry.Timeseries.create ~capacity:t.capacity
                    ~name:(key ^ " bytes") ();
                fs_packets =
                  Telemetry.Timeseries.create ~capacity:t.capacity
                    ~name:(key ^ " packets") ();
              }
            in
            Hashtbl.replace t.flows key fs;
            fs
      in
      fs.fs_latest <- s;
      Telemetry.Timeseries.record fs.fs_bytes ~ts_ns
        (float_of_int s.Of_message.stat_bytes);
      Telemetry.Timeseries.record fs.fs_packets ~ts_ns
        (float_of_int s.Of_message.stat_packets))
    stats

let record_ports t stats =
  t.port_reply_count <- t.port_reply_count + 1;
  t.latest_port_reply <- stats;
  let ts_ns = now_ns t in
  List.iter
    (fun (s : Of_message.port_stat) ->
      let p = s.Of_message.port_no in
      let rx =
        series t t.port_rx p
          ~name:(Printf.sprintf "port_rx_bytes{dpid=%Ld,port=%d}" t.poller_dpid p)
      in
      let tx =
        series t t.port_tx p
          ~name:(Printf.sprintf "port_tx_bytes{dpid=%Ld,port=%d}" t.poller_dpid p)
      in
      Telemetry.Timeseries.record rx ~ts_ns (float_of_int s.Of_message.rx_bytes);
      Telemetry.Timeseries.record tx ~ts_ns (float_of_int s.Of_message.tx_bytes))
    stats

let record_rtt t span =
  t.rtt_reply_count <- t.rtt_reply_count + 1;
  Telemetry.Timeseries.record t.rtt ~ts_ns:(now_ns t) (float_of_int span)

(* Flight-recorder events, correlated on the polled dpid.  Guarded at
   every call site. *)
let event t ?level ?detail name =
  Telemetry.Trace.event ?level ~ts_ns:(now_ns t)
    ~corr:
      (Telemetry.Trace.corr_of_string
         (Printf.sprintf "dpid:%Lx" t.poller_dpid))
    ?detail ~stream:"poller" name

let issue_round t =
  t.rounds <- t.rounds + 1;
  if Telemetry.Trace.enabled () then
    event t ~level:Telemetry.Trace.Debug
      ~detail:(Printf.sprintf "dpid:%Lx round=%d" t.poller_dpid t.rounds)
      "round";
  Controller.flow_stats t.ctrl t.poller_dpid ~on_reply:(record_flows t);
  Controller.port_stats t.ctrl t.poller_dpid ~on_reply:(record_ports t);
  Controller.measure_rtt t.ctrl t.poller_dpid ~on_reply:(record_rtt t)

let poll_now t = issue_round t

let connected t =
  match Channel.state (Controller.channel t.ctrl t.poller_dpid) with
  | Channel.Connected -> true
  | Channel.Disconnected -> false

let current_delay t =
  if t.failures = 0 then t.period
  else
    max t.period (Mgmt.Retry.delay_before_attempt t.retry ~attempt:t.failures)

let rec tick t ~epoch =
  if t.running && epoch = t.epoch then begin
    (* Judge the previous round before issuing the next one. *)
    let failed_before = t.failures in
    if not (connected t) then t.failures <- t.failures + 1
    else if t.rounds > 0 && t.flow_reply_count = t.replies_at_last_tick then
      t.failures <- t.failures + 1;
    if t.failures > failed_before && Telemetry.Trace.enabled () then
      event t ~level:Telemetry.Trace.Warn
        ~detail:
          (Printf.sprintf "dpid:%Lx consecutive=%d%s" t.poller_dpid t.failures
             (if connected t then "" else " disconnected"))
        "stall";
    t.replies_at_last_tick <- t.flow_reply_count;
    if connected t then issue_round t;
    Simnet.Engine.schedule_after
      (Controller.engine t.ctrl)
      (current_delay t)
      (fun () -> tick t ~epoch)
  end

let start t =
  if not t.running then begin
    t.running <- true;
    t.epoch <- t.epoch + 1;
    let epoch = t.epoch in
    Simnet.Engine.schedule_after
      (Controller.engine t.ctrl)
      t.period
      (fun () -> tick t ~epoch)
  end

let stop t = t.running <- false
let rounds_issued t = t.rounds
let flow_replies t = t.flow_reply_count
let port_replies t = t.port_reply_count
let rtt_replies t = t.rtt_reply_count
let consecutive_failures t = t.failures
let latest_flows t = t.latest_flow_reply
let latest_ports t = t.latest_port_reply

let flow_keys t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.flows [] |> List.sort String.compare

let flow_bytes_series t key =
  Option.map (fun fs -> fs.fs_bytes) (Hashtbl.find_opt t.flows key)

let flow_packets_series t key =
  Option.map (fun fs -> fs.fs_packets) (Hashtbl.find_opt t.flows key)

let port_rx_series t port = Hashtbl.find_opt t.port_rx port
let port_tx_series t port = Hashtbl.find_opt t.port_tx port
let rtt_series t = t.rtt

let port_rate t ~port ~now_ns ~window =
  match (port_rx_series t port, port_tx_series t port) with
  | Some rx, Some tx -> (
      match
        ( Telemetry.Timeseries.rate_over rx ~now_ns ~window,
          Telemetry.Timeseries.rate_over tx ~now_ns ~window )
      with
      | Some r, Some x -> Some (r, x)
      | _ -> None)
  | _ -> None

let top_flows t ~n ~now_ns ~window =
  let rated =
    Hashtbl.fold
      (fun key fs acc ->
        let rate =
          Option.value ~default:0.
            (Telemetry.Timeseries.rate_over fs.fs_bytes ~now_ns ~window)
        in
        (key, rate) :: acc)
      t.flows []
  in
  let cmp (ka, ra) (kb, rb) =
    match compare rb ra with 0 -> String.compare ka kb | c -> c
  in
  let sorted = List.sort cmp rated in
  List.filteri (fun i _ -> i < n) sorted
