type config = {
  bandwidth_bps : int;
  propagation : Sim_time.span;
  queue_bytes : int;
  mtu : int;
  loss : float;
  jitter : Sim_time.span;
  impair_seed : int;
}

let gige =
  {
    bandwidth_bps = 1_000_000_000;
    propagation = Sim_time.us 5;
    queue_bytes = 512 * 1024;
    mtu = 1500;
    loss = 0.0;
    jitter = 0;
    impair_seed = 1;
  }

let ten_gige =
  { gige with bandwidth_bps = 10_000_000_000; queue_bytes = 2 * 1024 * 1024 }

let config ?(bandwidth_bps = gige.bandwidth_bps) ?(propagation = gige.propagation)
    ?(queue_bytes = gige.queue_bytes) ?(mtu = gige.mtu) ?(loss = 0.0)
    ?(jitter = 0) ?(impair_seed = 1) () =
  if bandwidth_bps <= 0 then invalid_arg "Link.config: bandwidth_bps <= 0";
  if propagation < 0 then invalid_arg "Link.config: negative propagation";
  if queue_bytes < 0 then invalid_arg "Link.config: negative queue_bytes";
  if mtu <= 0 then invalid_arg "Link.config: mtu <= 0";
  if loss < 0.0 || loss >= 1.0 then invalid_arg "Link.config: loss outside [0, 1)";
  if jitter < 0 then invalid_arg "Link.config: negative jitter";
  { bandwidth_bps; propagation; queue_bytes; mtu; loss; jitter; impair_seed }

type dir_stats = {
  tx_packets : int;
  tx_bytes : int;
  drops_queue : int;
  drops_mtu : int;
  drops_loss : int;
  drops_down : int;
}

type dir = {
  cfg : config;
  engine : Engine.t;
  deliver : Engine.sink;  (* the far node's [Node.deliver] *)
  dst_port : int;
  rng : Rng.t;
  mutable next_free : Sim_time.t;
  mutable up : bool;
  (* Runtime impairments, initialized from [cfg] and mutable so fault
     injection can degrade a live link. *)
  mutable loss : float;
  mutable jitter : Sim_time.span;
  mutable packets : int;
  mutable bytes : int;
  mutable drops_queue : int;
  mutable drops_mtu : int;
  mutable drops_loss : int;
  mutable drops_down : int;
}

type t = {
  ab : dir;
  ba : dir;
  node_a : Node.t;
  port_a : int;
  node_b : Node.t;
  port_b : int;
}

let serialization_ns cfg wire_bytes =
  (* ns = bytes * 8 * 1e9 / bps; computed to avoid overflow for any
     realistic frame size and bandwidth. *)
  let bits = wire_bytes * 8 in
  int_of_float (ceil (float_of_int bits *. 1e9 /. float_of_int cfg.bandwidth_bps))

let backlog_bytes dir ~now =
  let busy = Sim_time.diff dir.next_free now in
  if busy <= 0 then 0
  else
    int_of_float
      (Float.of_int busy *. float_of_int dir.cfg.bandwidth_bps /. 8e9)

let send dir pkt =
  if not dir.up then dir.drops_down <- dir.drops_down + 1
  else begin
    let now = Engine.now dir.engine in
    (* The MTU constrains the L3 payload: frame size minus the 14-byte MAC
       header and 4 bytes per tag. *)
    let payload = Netpkt.Packet.payload_size pkt in
    if payload > dir.cfg.mtu then dir.drops_mtu <- dir.drops_mtu + 1
    else if dir.loss > 0.0 && Rng.float dir.rng 1.0 < dir.loss then
      dir.drops_loss <- dir.drops_loss + 1
    else begin
      let wire = Netpkt.Packet.wire_size pkt in
      if backlog_bytes dir ~now + wire > dir.cfg.queue_bytes && dir.cfg.queue_bytes > 0
      then dir.drops_queue <- dir.drops_queue + 1
      else begin
        let start = Sim_time.max now dir.next_free in
        let done_tx = Sim_time.add start (serialization_ns dir.cfg wire) in
        dir.next_free <- done_tx;
        dir.packets <- dir.packets + 1;
        dir.bytes <- dir.bytes + wire;
        let extra =
          if dir.jitter > 0 then Rng.int dir.rng (dir.jitter + 1) else 0
        in
        let arrival = Sim_time.add done_tx (dir.cfg.propagation + extra) in
        Engine.deliver_at dir.engine arrival dir.deliver dir.dst_port pkt
      end
    end
  end

let connect ?(a_to_b = gige) ?(b_to_a = gige) (node_a, port_a) (node_b, port_b) =
  let engine = Node.engine node_a in
  if not (Node.engine node_b == engine) then
    invalid_arg "Link.connect: nodes on different engines";
  let mk_dir cfg dst dst_port =
    {
      cfg;
      engine;
      deliver = Engine.sink engine (fun port pkt -> Node.deliver dst ~port pkt);
      dst_port;
      rng = Rng.create cfg.impair_seed;
      next_free = Sim_time.zero;
      up = true;
      loss = cfg.loss;
      jitter = cfg.jitter;
      packets = 0;
      bytes = 0;
      drops_queue = 0;
      drops_mtu = 0;
      drops_loss = 0;
      drops_down = 0;
    }
  in
  let ab = mk_dir a_to_b node_b port_b in
  let ba = mk_dir b_to_a node_a port_a in
  Node.attach node_a ~port:port_a (fun pkt -> send ab pkt);
  Node.attach node_b ~port:port_b (fun pkt -> send ba pkt);
  { ab; ba; node_a; port_a; node_b; port_b }

let disconnect t =
  t.ab.up <- false;
  t.ba.up <- false;
  Node.detach t.node_a ~port:t.port_a;
  Node.detach t.node_b ~port:t.port_b

let set_up t up =
  if (t.ab.up && t.ba.up) <> up then begin
    t.ab.up <- up;
    t.ba.up <- up;
    (* Both ends lose (or regain) carrier, like a fiber cut/splice. *)
    Node.set_carrier t.node_a ~port:t.port_a up;
    Node.set_carrier t.node_b ~port:t.port_b up
  end

let set_impairments ?loss ?jitter t =
  (match loss with
  | Some l when l < 0.0 || l >= 1.0 ->
      invalid_arg "Link.set_impairments: loss outside [0, 1)"
  | Some l ->
      t.ab.loss <- l;
      t.ba.loss <- l
  | None -> ());
  match jitter with
  | Some j when j < 0 -> invalid_arg "Link.set_impairments: negative jitter"
  | Some j ->
      t.ab.jitter <- j;
      t.ba.jitter <- j
  | None -> ()

let dir_stats d =
  {
    tx_packets = d.packets;
    tx_bytes = d.bytes;
    drops_queue = d.drops_queue;
    drops_mtu = d.drops_mtu;
    drops_loss = d.drops_loss;
    drops_down = d.drops_down;
  }

let stats_a_to_b t = dir_stats t.ab

let utilization_a_to_b t ~now =
  let seconds = Sim_time.span_to_seconds (Sim_time.to_ns now) in
  if seconds <= 0.0 then 0.0
  else
    8.0 *. float_of_int t.ab.bytes
    /. (seconds *. float_of_int t.ab.cfg.bandwidth_bps)
