type direction = Rx | Tx

(* Declared in name order, so [drop_counters] comes out sorted. *)
type drop =
  | Drop_bad_out_port
  | Drop_crashed
  | Drop_disconnected_punt
  | Drop_fail_secure
  | Drop_ingress_vlan
  | Drop_port_security
  | Drop_rx_ring
  | Drop_same_port
  | Drop_storm
  | Drop_table_miss
  | Tx_drop_no_carrier
  | Tx_drop_unattached

let drop_index = function
  | Drop_bad_out_port -> 0
  | Drop_crashed -> 1
  | Drop_disconnected_punt -> 2
  | Drop_fail_secure -> 3
  | Drop_ingress_vlan -> 4
  | Drop_port_security -> 5
  | Drop_rx_ring -> 6
  | Drop_same_port -> 7
  | Drop_storm -> 8
  | Drop_table_miss -> 9
  | Tx_drop_no_carrier -> 10
  | Tx_drop_unattached -> 11

let drop_names =
  [|
    "drop_bad_out_port"; "drop_crashed"; "drop_disconnected_punt";
    "drop_fail_secure"; "drop_ingress_vlan"; "drop_port_security";
    "drop_rx_ring"; "drop_same_port"; "drop_storm"; "drop_table_miss";
    "tx_drop_no_carrier"; "tx_drop_unattached";
  |]

type t = {
  name : string;
  engine : Engine.t;
  mutable tx_fns : (Netpkt.Packet.t -> unit) option array;
  mutable carrier_ok : bool array;
  (* Per-port frame counters, indexed by port; bytes are wire sizes. *)
  mutable rx_packets : int array;
  mutable tx_packets : int array;
  mutable rx_bytes : int array;
  mutable tx_bytes : int array;
  mutable handler : handler;
  drops : int array; (* indexed by [drop_index] *)
  mutable taps : (direction -> int -> Netpkt.Packet.t -> unit) list;
  mutable attachment_watchers : (port:int -> up:bool -> unit) list;
}

and handler = t -> in_port:int -> Netpkt.Packet.t -> unit

let no_op_handler _ ~in_port:_ _ = ()

let create engine ~name ~ports =
  if ports < 0 then invalid_arg "Node.create: negative port count";
  {
    name;
    engine;
    tx_fns = Array.make ports None;
    carrier_ok = Array.make ports true;
    rx_packets = Array.make ports 0;
    tx_packets = Array.make ports 0;
    rx_bytes = Array.make ports 0;
    tx_bytes = Array.make ports 0;
    handler = no_op_handler;
    drops = Array.make (Array.length drop_names) 0;
    taps = [];
    attachment_watchers = [];
  }

let name t = t.name
let engine t = t.engine
let port_count t = Array.length t.tx_fns

let add_ports t n =
  if n < 0 then invalid_arg "Node.add_ports: negative";
  let first = Array.length t.tx_fns in
  let grow a fill = Array.append a (Array.make n fill) in
  t.tx_fns <- grow t.tx_fns None;
  t.carrier_ok <- grow t.carrier_ok true;
  t.rx_packets <- grow t.rx_packets 0;
  t.tx_packets <- grow t.tx_packets 0;
  t.rx_bytes <- grow t.rx_bytes 0;
  t.tx_bytes <- grow t.tx_bytes 0;
  first

let set_handler t h = t.handler <- h

let check_port t port =
  if port < 0 || port >= Array.length t.tx_fns then
    invalid_arg (Printf.sprintf "Node %s: bad port %d" t.name port)

(* Direct recursion rather than [List.iter]: a closure over [dir], [port]
   and [pkt] would allocate on every frame. *)
let rec run_taps taps dir port pkt =
  match taps with
  | [] -> ()
  | tap :: rest ->
      tap dir port pkt;
      run_taps rest dir port pkt

let drop t reason =
  let i = drop_index reason in
  t.drops.(i) <- t.drops.(i) + 1

let drops t reason = t.drops.(drop_index reason)

let drop_counters t =
  List.filter_map
    (fun i -> if t.drops.(i) = 0 then None else Some (drop_names.(i), t.drops.(i)))
    (List.init (Array.length drop_names) Fun.id)

let transmit t ~port pkt =
  check_port t port;
  match t.tx_fns.(port) with
  | None -> drop t Tx_drop_unattached
  | Some _ when not t.carrier_ok.(port) -> drop t Tx_drop_no_carrier
  | Some send ->
      t.tx_packets.(port) <- t.tx_packets.(port) + 1;
      t.tx_bytes.(port) <- t.tx_bytes.(port) + Netpkt.Packet.wire_size pkt;
      run_taps t.taps Tx port pkt;
      send pkt

let deliver t ~port pkt =
  check_port t port;
  t.rx_packets.(port) <- t.rx_packets.(port) + 1;
  t.rx_bytes.(port) <- t.rx_bytes.(port) + Netpkt.Packet.wire_size pkt;
  run_taps t.taps Rx port pkt;
  t.handler t ~in_port:port pkt

let notify_attachment t port up =
  List.iter (fun f -> f ~port ~up) t.attachment_watchers

let attach t ~port send =
  check_port t port;
  (match t.tx_fns.(port) with
  | Some _ ->
      invalid_arg (Printf.sprintf "Node %s: port %d already attached" t.name port)
  | None -> ());
  t.tx_fns.(port) <- Some send;
  notify_attachment t port true

let detach t ~port =
  check_port t port;
  if Option.is_some t.tx_fns.(port) then begin
    t.tx_fns.(port) <- None;
    notify_attachment t port false
  end

let set_carrier t ~port up =
  check_port t port;
  if t.carrier_ok.(port) <> up then begin
    t.carrier_ok.(port) <- up;
    (* Only signal a transition the far side can observe: a port with no
       link attached has no carrier to lose. *)
    if Option.is_some t.tx_fns.(port) then notify_attachment t port up
  end

let carrier t ~port =
  check_port t port;
  Option.is_some t.tx_fns.(port) && t.carrier_ok.(port)

let port_counter counts t ~port =
  check_port t port;
  counts.(port)

let rx_packets t ~port = port_counter t.rx_packets t ~port
let tx_packets t ~port = port_counter t.tx_packets t ~port
let rx_bytes t ~port = port_counter t.rx_bytes t ~port
let tx_bytes t ~port = port_counter t.tx_bytes t ~port
let rx_total t = Array.fold_left ( + ) 0 t.rx_packets
let tx_total t = Array.fold_left ( + ) 0 t.tx_packets

let traffic_counters t =
  let total name v = if v = 0 then [] else [ (name, v) ] in
  let per_port dir packets bytes =
    List.concat
      (List.init (port_count t) (fun p ->
           if packets.(p) = 0 then []
           else
             [
               (Printf.sprintf "%s.%d" dir p, packets.(p));
               (Printf.sprintf "%s_bytes.%d" dir p, bytes.(p));
             ]))
  in
  total "rx" (rx_total t)
  @ total "tx" (tx_total t)
  @ per_port "rx" t.rx_packets t.rx_bytes
  @ per_port "tx" t.tx_packets t.tx_bytes

let add_tap t tap = t.taps <- t.taps @ [ tap ]

let on_attachment_change t f =
  t.attachment_watchers <- t.attachment_watchers @ [ f ]
