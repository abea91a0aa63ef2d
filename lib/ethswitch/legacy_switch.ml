open Simnet
open Netpkt

(* Modelled per-stage forwarding costs, in CPU-equivalent cycles at the
   trace clock — what this switch's Trace hops report.  The legacy box
   is an ASIC, so these are small constants, not measured work; the
   full cycle-model table lives in Telemetry.Trace's interface. *)
let ingress_cycles = 90 (* VLAN classify + MAC learn + lookup *)
let tag_rewrite_cycles = 12 (* one 802.1Q push or pop *)

type storm_bucket = {
  pps : int;
  mutable tokens : float;
  mutable last_refill : Sim_time.t;
}

type t = {
  node : Node.t;
  engine : Engine.t;
  name : string;
  modes : Port_config.mode array;
  mac_table : Mac_table.t;
  processing_delay : Sim_time.span;
  mutable storm : storm_bucket option array;
  mutable max_macs : int option array;
  mutable mirror : int option;
  mutable forwarded : int;
  mutable flooded : int;
}

let node t = t.node
let name t = t.name
let port_count t = Array.length t.modes
let mac_table t = t.mac_table
let forwarded t = t.forwarded
let flooded t = t.flooded

let check_port t port =
  if port < 0 || port >= Array.length t.modes then
    invalid_arg (Printf.sprintf "Legacy_switch %s: bad port %d" t.name port)

let set_port_mode t ~port mode =
  check_port t port;
  t.modes.(port) <- mode;
  Mac_table.flush_port t.mac_table ~port

let port_mode t ~port =
  check_port t port;
  t.modes.(port)

let set_storm_control t ~port ~pps =
  check_port t port;
  match pps with
  | None -> t.storm.(port) <- None
  | Some rate ->
      if rate <= 0 then invalid_arg "Legacy_switch.set_storm_control: pps <= 0";
      t.storm.(port) <-
        Some
          {
            pps = rate;
            tokens = float_of_int rate /. 10.0;
            last_refill = Engine.now t.engine;
          }

let storm_control t ~port =
  check_port t port;
  Option.map (fun b -> b.pps) t.storm.(port)

let set_port_security t ~port ~max_macs =
  check_port t port;
  (match max_macs with
  | Some n when n <= 0 -> invalid_arg "Legacy_switch.set_port_security: max <= 0"
  | Some _ | None -> ());
  t.max_macs.(port) <- max_macs

let set_mirror t ~dst =
  (match dst with Some p -> check_port t p | None -> ());
  t.mirror <- dst

let mirror t = t.mirror

(* Port security ("protect" mode): a new source address beyond the limit
   is not learned and its frames are dropped; known addresses keep
   working. *)
let security_allows t ~in_port ~vlan ~mac ~now =
  match t.max_macs.(in_port) with
  | None -> true
  | Some limit -> (
      (not (Netpkt.Mac_addr.is_unicast mac))
      ||
      match Mac_table.lookup t.mac_table ~now ~vlan ~mac with
      | Some p when p = in_port -> true
      | Some _ | None -> Mac_table.count_port t.mac_table ~now ~port:in_port < limit)

(* One token per allowed packet; bucket caps at a 100 ms burst. *)
let storm_allows t ~port =
  match t.storm.(port) with
  | None -> true
  | Some b ->
      let now = Engine.now t.engine in
      let elapsed = Sim_time.span_to_seconds (Sim_time.diff now b.last_refill) in
      if elapsed > 0.0 then begin
        b.tokens <-
          Float.min (float_of_int b.pps /. 10.0)
            (b.tokens +. (elapsed *. float_of_int b.pps));
        b.last_refill <- now
      end;
      if b.tokens >= 1.0 then begin
        b.tokens <- b.tokens -. 1.0;
        true
      end
      else false

let vlans_in_use t =
  let module Iset = Set.Make (Int) in
  let add_mode acc = function
    | Port_config.Access pvid -> Iset.add pvid acc
    | Port_config.Disabled -> acc
    | Port_config.Trunk { native; allowed } ->
        let acc = match native with Some v -> Iset.add v acc | None -> acc in
        (match allowed with
        | Port_config.All -> acc
        | Port_config.Only vids -> List.fold_left (fun a v -> Iset.add v a) acc vids)
  in
  Iset.elements (Array.fold_left add_mode Iset.empty t.modes)

(* Send [inner] (the frame without its outer customer tag) out of [port],
   encapsulated for that port's membership of [vlan].  A configured SPAN
   port additionally gets an untagged copy of everything that egresses.
   [had_tag] says whether the frame carried an outer tag at ingress, so
   the trace can distinguish a tag pop from plain untagged delivery. *)
let egress t ~port ~vlan ~had_tag inner =
  let sent =
    match Port_config.egress_encap t.modes.(port) ~vlan with
    | None -> false
    | Some `Untagged ->
        if Telemetry.Trace.enabled () then
          Telemetry.Trace.emit
            ~ts_ns:(Sim_time.to_ns (Engine.now t.engine))
            ~component:t.name ~layer:Telemetry.Trace.Legacy
            ~stage:(if had_tag then "tag_pop" else "egress")
            ~port
            ~cycles:(if had_tag then tag_rewrite_cycles else 0)
            ~detail:(Printf.sprintf "vlan=%d untagged delivery" vlan)
            inner;
        Node.transmit t.node ~port inner;
        true
    | Some (`Tagged vid) ->
        let tagged = Packet.push_vlan (Vlan.make vid) inner in
        if Telemetry.Trace.enabled () then
          Telemetry.Trace.emit
            ~ts_ns:(Sim_time.to_ns (Engine.now t.engine))
            ~component:t.name ~layer:Telemetry.Trace.Legacy ~stage:"tag_push"
            ~port ~cycles:tag_rewrite_cycles
            ~detail:(Printf.sprintf "vid=%d" vid)
            tagged;
        Node.transmit t.node ~port tagged;
        true
  in
  match t.mirror with
  | Some span when sent && span <> port -> Node.transmit t.node ~port:span inner
  | Some _ | None -> ()

let forward t ~in_port (pkt : Packet.t) =
  let mode = t.modes.(in_port) in
  match Port_config.classify_ingress mode ~tag_vid:(Packet.outer_vid pkt) with
  | None -> Node.drop t.node Node.Drop_ingress_vlan
  | Some vlan ->
      let had_tag = Option.is_some (Packet.outer_vid pkt) in
      if Telemetry.Trace.enabled () then
        Telemetry.Trace.emit
          ~ts_ns:(Sim_time.to_ns (Engine.now t.engine))
          ~component:t.name ~layer:Telemetry.Trace.Legacy ~stage:"ingress"
          ~port:in_port ~cycles:ingress_cycles
          ~detail:
            (Printf.sprintf "vlan=%d %s" vlan
               (if had_tag then "(tagged)" else "(access)"))
          pkt;
      (* Work with the frame stripped of its outer tag (if it had one). *)
      let inner =
        match Packet.pop_vlan pkt with Some (_, rest) -> rest | None -> pkt
      in
      let now = Engine.now t.engine in
      if not (security_allows t ~in_port ~vlan ~mac:pkt.Packet.src ~now) then
        Node.drop t.node Node.Drop_port_security
      else begin
      Mac_table.learn t.mac_table ~now ~vlan ~mac:pkt.Packet.src ~port:in_port;
      let flood () =
        t.flooded <- t.flooded + 1;
        for port = 0 to Array.length t.modes - 1 do
          if port <> in_port then egress t ~port ~vlan ~had_tag inner
        done
      in
      if not (Mac_addr.is_unicast pkt.Packet.dst) then begin
        if storm_allows t ~port:in_port then flood ()
        else Node.drop t.node Node.Drop_storm
      end
      else
        match Mac_table.lookup t.mac_table ~now ~vlan ~mac:pkt.Packet.dst with
        | None -> flood ()
        | Some out_port when out_port = in_port ->
            Node.drop t.node Node.Drop_same_port
        | Some out_port ->
            t.forwarded <- t.forwarded + 1;
            egress t ~port:out_port ~vlan ~had_tag inner
      end

let publish_metrics ?registry ?(labels = []) t =
  let labels = ("device", t.name) :: labels in
  Telemetry.Registry.publish_ints ?registry ~prefix:"ethswitch" ~labels
    (Node.drop_counters t.node
    @ List.filter (fun (_, n) -> n > 0) [ ("flood", t.flooded); ("fwd", t.forwarded) ]
    @ Node.traffic_counters t.node
    @ [ ("mac_table_entries", Mac_table.entry_count t.mac_table) ])

let create engine ~name ~ports ?(processing_delay = Sim_time.us 4)
    ?(mac_table_capacity = 8192) ?(mac_aging = Sim_time.s 300) () =
  let node = Node.create engine ~name ~ports in
  let t =
    {
      node;
      engine;
      name;
      modes = Array.make ports Port_config.default;
      mac_table = Mac_table.create ~capacity:mac_table_capacity ~aging:mac_aging ();
      processing_delay;
      storm = Array.make ports None;
      max_macs = Array.make ports None;
      mirror = None;
      forwarded = 0;
      flooded = 0;
    }
  in
  Node.set_handler node (fun _node ~in_port pkt ->
      if t.processing_delay = 0 then forward t ~in_port pkt
      else
        Engine.schedule_after engine t.processing_delay (fun () ->
            forward t ~in_port pkt));
  t
