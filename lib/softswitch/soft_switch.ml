open Simnet
open Openflow

(* Modelled per-stage costs (CPU cycles) reported by this switch's Trace
   hops for work the PMD batch model does not already cover; the
   "pipeline" stage reports the dataplane's measured cycles instead.
   The full cycle-model table lives in Telemetry.Trace's interface. *)
let tx_cycles = 20 (* egress queueing + descriptor write-back *)
let punt_cycles = 150 (* encapsulate as Packet_in, hand to channel *)
let standalone_cycles = 120 (* local learning-switch slow path *)

type dataplane_kind =
  | Linear
  | Ovs of Ovs_like.config
  | Eswitch
  | Hardware

type miss_behavior = Drop_on_miss | Send_to_controller
type connection_mode = Fail_secure | Fail_standalone

type t = {
  node : Node.t;
  engine : Engine.t;
  name : string;
  pipeline : Pipeline.t;
  dataplane : Dataplane.t;
  pmd : Pmd.t;
  datapath_id : int64;
  miss : miss_behavior;
  mutable controller : Of_message.t -> unit;
  mutable to_controller_observers : (Of_message.t -> unit) list;
  mutable packet_ins : int;
  mutable flow_mods : int;
  mutable since_expiry : int;
  mutable flowrec : Flowrec.t option;
  mutable connected : bool;
  mutable alive : bool;
  mutable connection_mode : connection_mode;
  (* Local L2 learning used only while disconnected in Fail_standalone. *)
  local_macs : (Netpkt.Mac_addr.t, int) Hashtbl.t;
  mutable standalone_forwards : int;
  mutable crashes : int;
}

let node t = t.node
let name t = t.name
let pipeline t = t.pipeline
let datapath_id t = t.datapath_id
let dataplane_name t = t.dataplane.Dataplane.name
let set_controller t f =
  t.controller <-
    (fun msg ->
      List.iter (fun observe -> observe msg) t.to_controller_observers;
      f msg)

let observe_messages_to_controller t f =
  t.to_controller_observers <- t.to_controller_observers @ [ f ]
let pmd t = t.pmd
let connected t = t.connected
let alive t = t.alive
let connection_mode t = t.connection_mode
let set_connection_mode t mode = t.connection_mode <- mode
let standalone_forwards t = t.standalone_forwards

let set_connected t up =
  if t.connected <> up then begin
    t.connected <- up;
    (* Reconnected: the controller owns forwarding again, so forget what
       standalone learning picked up while it was away. *)
    if up then Hashtbl.reset t.local_macs
  end

let crash t =
  if t.alive then begin
    t.alive <- false;
    t.connected <- false;
    t.crashes <- t.crashes + 1;
    Hashtbl.reset t.local_macs;
    (* Soft state dies with the process: every flow table empties. *)
    for i = 0 to Pipeline.num_tables t.pipeline - 1 do
      Flow_table.clear (Pipeline.table t.pipeline i)
    done
  end

let restart t = t.alive <- true
let crashes t = t.crashes

let hardware_dataplane pipeline =
  (* ASIC: TCAM lookup, constant tiny cost. *)
  let packets = ref 0 in
  let process ~now_ns ~in_port pkt =
    incr packets;
    (Pipeline.execute pipeline ~now_ns ~in_port pkt, 2)
  in
  {
    Dataplane.name = "hardware";
    process;
    stats = (fun () -> [ ("packets", !packets) ]);
    tier = (fun () -> "tcam");
  }

let set_flowrec t fr = t.flowrec <- fr

let expire_flows t =
  let now_ns = Sim_time.to_ns (Engine.now t.engine) in
  for i = 0 to Pipeline.num_tables t.pipeline - 1 do
    ignore (Flow_table.expire (Pipeline.table t.pipeline i) ~now_ns)
  done

let trace_tx t ~port ~detail pkt =
  if Telemetry.Trace.enabled () then
    Telemetry.Trace.emit
      ~ts_ns:(Sim_time.to_ns (Engine.now t.engine))
      ~component:t.name ~layer:Telemetry.Trace.Switch ~stage:"tx" ~port
      ~cycles:tx_cycles ~detail pkt

let resolve_outputs t ~in_port outputs =
  let ports = Node.port_count t.node in
  List.iter
    (fun output ->
      match output with
      | Pipeline.Port (p, pkt) ->
          if p >= 0 && p < ports && p <> in_port then begin
            trace_tx t ~port:p ~detail:"" pkt;
            Node.transmit t.node ~port:p pkt
          end
          else if p = in_port then () (* OF requires In_port for hairpin *)
          else Node.drop t.node Node.Drop_bad_out_port
      | Pipeline.In_port pkt ->
          trace_tx t ~port:in_port ~detail:"in_port (hairpin)" pkt;
          Node.transmit t.node ~port:in_port pkt
      | Pipeline.Flood pkt ->
          for p = 0 to ports - 1 do
            if p <> in_port then begin
              trace_tx t ~port:p ~detail:"flood" pkt;
              Node.transmit t.node ~port:p pkt
            end
          done
      | Pipeline.All_ports pkt ->
          for p = 0 to ports - 1 do
            trace_tx t ~port:p ~detail:"all_ports" pkt;
            Node.transmit t.node ~port:p pkt
          done
      | Pipeline.Controller (_max_len, pkt) ->
          if not t.connected then
            Node.drop t.node Node.Drop_disconnected_punt
          else begin
            t.packet_ins <- t.packet_ins + 1;
            if Telemetry.Trace.enabled () then
              Telemetry.Trace.emit
                ~ts_ns:(Sim_time.to_ns (Engine.now t.engine))
                ~component:t.name ~layer:Telemetry.Trace.Switch ~stage:"punt"
                ~port:in_port ~cycles:punt_cycles ~detail:"output:controller"
                pkt;
            t.controller
              (Of_message.Packet_in
                 { in_port; reason = Of_message.Action_to_controller; packet = pkt })
          end)
    outputs

(* Connection lost in Fail_standalone: degrade to a plain learning
   switch so local traffic keeps flowing until the controller returns. *)
let standalone_forward t ~in_port pkt =
  t.standalone_forwards <- t.standalone_forwards + 1;
  Hashtbl.replace t.local_macs pkt.Netpkt.Packet.src in_port;
  if Telemetry.Trace.enabled () then
    Telemetry.Trace.emit
      ~ts_ns:(Sim_time.to_ns (Engine.now t.engine))
      ~component:t.name ~layer:Telemetry.Trace.Switch ~stage:"standalone"
      ~port:in_port ~cycles:standalone_cycles
      ~detail:"local L2 forwarding (controller unreachable)" pkt;
  let flood () =
    for p = 0 to Node.port_count t.node - 1 do
      if p <> in_port then Node.transmit t.node ~port:p pkt
    done
  in
  if Netpkt.Mac_addr.is_unicast pkt.Netpkt.Packet.dst then
    match Hashtbl.find_opt t.local_macs pkt.Netpkt.Packet.dst with
    | Some out_port when out_port <> in_port ->
        Node.transmit t.node ~port:out_port pkt
    | Some _ -> ()
    | None -> flood ()
  else flood ()

let handle_packet t ~in_port pkt =
  if not t.alive then
    Node.drop t.node Node.Drop_crashed
  else
  let now_ns = Sim_time.to_ns (Engine.now t.engine) in
  (* Sampled flow telemetry taps the receive path before the pipeline —
     the sFlow position.  [None] costs one field read. *)
  (match t.flowrec with
  | Some fr -> Flowrec.observe fr ~now_ns ~in_port pkt
  | None -> ());
  if Telemetry.Trace.enabled () then
    Telemetry.Trace.emit ~ts_ns:now_ns ~component:t.name
      ~layer:Telemetry.Trace.Switch ~stage:"rx" ~port:in_port
      ~cycles:(Pmd.config t.pmd).Pmd.per_packet_io_cycles pkt;
  let result, cycles = t.dataplane.Dataplane.process ~now_ns ~in_port pkt in
  if Telemetry.Trace.enabled () then
    Telemetry.Trace.emit ~ts_ns:now_ns ~component:t.name
      ~layer:Telemetry.Trace.Switch ~stage:"pipeline" ~port:in_port ~cycles
      ~detail:
        (Printf.sprintf "dataplane=%s tier=%s matched=%d%s"
           t.dataplane.Dataplane.name
           (t.dataplane.Dataplane.tier ())
           (List.length result.Pipeline.matched)
           (if result.Pipeline.table_miss then " table_miss" else ""))
      pkt;
  let complete () =
    t.since_expiry <- t.since_expiry + 1;
    if t.since_expiry >= 1024 then begin
      t.since_expiry <- 0;
      expire_flows t
    end;
    if result.Pipeline.table_miss then begin
      match t.miss with
      | Drop_on_miss -> Node.drop t.node Node.Drop_table_miss
      | Send_to_controller when t.connected ->
          t.packet_ins <- t.packet_ins + 1;
          t.controller
            (Of_message.Packet_in
               { in_port; reason = Of_message.No_match; packet = pkt })
      | Send_to_controller -> (
          (* Connection interruption: the OpenFlow fail mode decides. *)
          match t.connection_mode with
          | Fail_secure ->
              Node.drop t.node Node.Drop_fail_secure
          | Fail_standalone -> standalone_forward t ~in_port pkt)
    end;
    resolve_outputs t ~in_port result.Pipeline.outputs
  in
  if not (Pmd.submit t.pmd ~cycles complete) then begin
    if Telemetry.Trace.enabled () then
      Telemetry.Trace.emit ~ts_ns:now_ns ~component:t.name
        ~layer:Telemetry.Trace.Switch ~stage:"drop" ~port:in_port ~cycles:0
        ~detail:"rx ring full" pkt;
    Node.drop t.node Node.Drop_rx_ring
  end

let apply_flow_mod t (fm : Of_message.flow_mod) =
  let now_ns = Sim_time.to_ns (Engine.now t.engine) in
  if fm.Of_message.table_id < 0 || fm.Of_message.table_id >= Pipeline.num_tables t.pipeline
  then t.controller (Of_message.Error "flow-mod: bad table id")
  else begin
    let table = Pipeline.table t.pipeline fm.Of_message.table_id in
    t.flow_mods <- t.flow_mods + 1;
    match fm.Of_message.command with
    | Of_message.Add -> (
        let entry =
          Flow_entry.make ~priority:fm.Of_message.priority
            ~cookie:fm.Of_message.cookie
            ?idle_timeout_s:fm.Of_message.idle_timeout_s
            ?hard_timeout_s:fm.Of_message.hard_timeout_s
            ~match_:fm.Of_message.match_ fm.Of_message.instructions
        in
        try Flow_table.add table ~now_ns entry
        with Flow_table.Table_full -> t.controller (Of_message.Error "flow-mod: table full"))
    | Of_message.Modify { strict } ->
        ignore
          (Flow_table.modify table ~strict fm.Of_message.match_
             ~priority:fm.Of_message.priority fm.Of_message.instructions)
    | Of_message.Delete { strict } ->
        ignore
          (Flow_table.delete table ~strict ?out_port:fm.Of_message.out_port
             fm.Of_message.match_ ~priority:fm.Of_message.priority)
  end

let apply_meter_mod t mm =
  let meters = Pipeline.meters t.pipeline in
  match mm with
  | Of_message.Add_meter { id; band } -> (
      try Meter_table.add meters ~id band
      with Invalid_argument msg -> t.controller (Of_message.Error msg))
  | Of_message.Modify_meter { id; band } -> (
      try Meter_table.modify meters ~id band
      with Not_found -> t.controller (Of_message.Error "meter-mod: unknown meter"))
  | Of_message.Delete_meter { id } -> Meter_table.remove meters ~id

let apply_group_mod t gm =
  let groups = Pipeline.groups t.pipeline in
  match gm with
  | Of_message.Add_group { id; gtype; buckets } -> (
      try Group_table.add groups ~id gtype buckets
      with Invalid_argument msg -> t.controller (Of_message.Error msg))
  | Of_message.Modify_group { id; gtype; buckets } -> (
      try Group_table.modify groups ~id gtype buckets
      with Not_found -> t.controller (Of_message.Error "group-mod: unknown group"))
  | Of_message.Delete_group { id } -> Group_table.remove groups ~id

let apply_packet_out t ~in_port actions pkt =
  (* Packet-outs execute an explicit action list: rewrites in order,
     outputs as they appear. *)
  let in_port = match in_port with Some p -> p | None -> -1 in
  let result =
    let outputs = ref [] in
    let pkt = ref pkt in
    List.iter
      (fun action ->
        match action with
        | Of_action.Output (Of_action.Physical p) ->
            outputs := Pipeline.Port (p, !pkt) :: !outputs
        | Of_action.Output Of_action.In_port ->
            outputs := Pipeline.In_port !pkt :: !outputs
        | Of_action.Output Of_action.Flood -> outputs := Pipeline.Flood !pkt :: !outputs
        | Of_action.Output Of_action.All -> outputs := Pipeline.All_ports !pkt :: !outputs
        | Of_action.Output (Of_action.Controller n) ->
            outputs := Pipeline.Controller (n, !pkt) :: !outputs
        | Of_action.Group _ | Of_action.Drop -> ()
        | rewrite -> pkt := Of_action.apply_rewrite rewrite !pkt)
      actions;
    { Pipeline.outputs = List.rev !outputs; table_miss = false; matched = [] }
  in
  resolve_outputs t ~in_port result.Pipeline.outputs

let flow_stats t table_filter =
  let stat_of table_id e =
    {
      Of_message.stat_table_id = table_id;
      stat_priority = e.Flow_entry.priority;
      stat_match = e.Flow_entry.match_;
      stat_packets = e.Flow_entry.packets;
      stat_bytes = e.Flow_entry.bytes;
    }
  in
  let tables =
    match table_filter with
    | Some id -> [ id ]
    | None -> List.init (Pipeline.num_tables t.pipeline) Fun.id
  in
  List.concat_map
    (fun id -> List.map (stat_of id) (Flow_table.entries (Pipeline.table t.pipeline id)))
    tables

let port_stats t =
  let n = t.node in
  List.init (Node.port_count n) (fun port ->
      {
        Of_message.port_no = port;
        rx_packets = Node.rx_packets n ~port;
        tx_packets = Node.tx_packets n ~port;
        rx_bytes = Node.rx_bytes n ~port;
        tx_bytes = Node.tx_bytes n ~port;
      })

let handle_message t msg =
  if not t.alive then () (* a crashed agent answers nothing *)
  else
  match msg with
  | Of_message.Hello -> t.controller Of_message.Hello
  | Of_message.Echo_request payload -> t.controller (Of_message.Echo_reply payload)
  | Of_message.Features_request ->
      t.controller
        (Of_message.Features_reply
           {
             datapath_id = t.datapath_id;
             num_ports = Node.port_count t.node;
             num_tables = Pipeline.num_tables t.pipeline;
           })
  | Of_message.Flow_mod fm -> apply_flow_mod t fm
  | Of_message.Group_mod gm -> apply_group_mod t gm
  | Of_message.Meter_mod mm -> apply_meter_mod t mm
  | Of_message.Packet_out { in_port; actions; packet } ->
      apply_packet_out t ~in_port actions packet
  | Of_message.Flow_stats_request { table_id } ->
      t.controller (Of_message.Flow_stats_reply (flow_stats t table_id))
  | Of_message.Port_stats_request ->
      t.controller (Of_message.Port_stats_reply (port_stats t))
  | Of_message.Barrier_request n -> t.controller (Of_message.Barrier_reply n)
  | Of_message.Echo_reply _ | Of_message.Features_reply _
  | Of_message.Packet_in _ | Of_message.Flow_stats_reply _
  | Of_message.Port_stats_reply _ | Of_message.Barrier_reply _
  | Of_message.Port_status _ | Of_message.Error _ -> ()

let stats t =
  t.dataplane.Dataplane.stats ()
  @ [
      ("pmd_processed", Pmd.processed t.pmd);
      ("pmd_dropped", Node.drops t.node Node.Drop_rx_ring);
      ("packet_ins", t.packet_ins);
      ("flow_mods", t.flow_mods);
      ("standalone_forwards", t.standalone_forwards);
      ("crashes", t.crashes);
      ("connected", if t.connected then 1 else 0);
    ]

let publish_metrics ?registry ?(labels = []) t =
  let labels =
    ("switch", t.name) :: ("dataplane", t.dataplane.Dataplane.name) :: labels
  in
  Telemetry.Registry.publish_ints ?registry ~prefix:"softswitch" ~labels
    (stats t
    @ Node.drop_counters t.node
    @ [
        ("flow_entries", Openflow.Pipeline.total_entries t.pipeline);
        ("pmd_busy_ns", Pmd.busy_ns t.pmd);
        ("rx_packets", Node.rx_total t.node);
        ("tx_packets", Node.tx_total t.node);
      ])

let process_direct t ~now_ns ~in_port pkt =
  (match t.flowrec with
  | Some fr -> Flowrec.observe fr ~now_ns ~in_port pkt
  | None -> ());
  t.dataplane.Dataplane.process ~now_ns ~in_port pkt

let next_dpid = ref 0L

let create engine ~name ~ports ?(dataplane = Eswitch) ?(pmd = Pmd.default_config)
    ?(num_tables = 4) ?max_flow_entries ?(miss = Send_to_controller) () =
  let pipeline =
    Pipeline.create ~num_tables ?max_entries_per_table:max_flow_entries ()
  in
  let node = Node.create engine ~name ~ports in
  let dp =
    match dataplane with
    | Linear -> Linear.create pipeline
    | Ovs config -> Ovs_like.create ~config pipeline
    | Eswitch -> Eswitch.create pipeline
    | Hardware -> hardware_dataplane pipeline
  in
  next_dpid := Int64.add !next_dpid 1L;
  let t =
    {
      node;
      engine;
      name;
      pipeline;
      dataplane = dp;
      pmd = Pmd.create engine ~config:pmd ();
      datapath_id = !next_dpid;
      miss;
      controller = (fun _ -> ());
      to_controller_observers = [];
      packet_ins = 0;
      flow_mods = 0;
      since_expiry = 0;
      flowrec = None;
      connected = true;
      alive = true;
      connection_mode = Fail_secure;
      local_macs = Hashtbl.create 64;
      standalone_forwards = 0;
      crashes = 0;
    }
  in
  set_controller t (fun _ -> ());
  Node.set_handler node (fun _node ~in_port pkt -> handle_packet t ~in_port pkt);
  (* Surface carrier changes to the controller as OFPT_PORT_STATUS. *)
  Node.on_attachment_change node (fun ~port ~up ->
      t.controller (Of_message.Port_status { port_no = port; up }));
  t
