open Netpkt

type record = {
  rc_key : Packet.Flow_key.t;
  rc_hash : int;
  rc_bytes : int;
  rc_ts_ns : int;
  rc_in_port : int;
}

type config = {
  rate : int;
  cm_epsilon : float;
  cm_delta : float;
  hll_p : int;
  topk : int;
  ring : int;
  seed : int;
}

let default_config =
  {
    rate = 16;
    cm_epsilon = 0.005;
    cm_delta = 0.01;
    hll_p = 14;
    topk = 32;
    ring = 256;
    seed = 42;
  }

type t = {
  cfg : config;
  cm : Telemetry.Sketch.Cm.t;
  hll : Telemetry.Sketch.Hll.t;
  topk : Telemetry.Sketch.Topk.t;
  ring_buf : record option array;
  mutable ring_next : int;
  mutable countdown : int;
  mutable seen : int;
  mutable sampled : int;
  mutable on_sample : (record -> unit) option;
}

let create ?(config = default_config) () =
  if config.rate < 1 then invalid_arg "Flowrec.create: rate must be >= 1";
  if config.ring < 0 then invalid_arg "Flowrec.create: negative ring size";
  {
    cfg = config;
    cm =
      Telemetry.Sketch.Cm.create ~seed:config.seed ~epsilon:config.cm_epsilon
        ~delta:config.cm_delta;
    hll = Telemetry.Sketch.Hll.create ~seed:config.seed ~p:config.hll_p;
    topk = Telemetry.Sketch.Topk.create ~k:config.topk;
    ring_buf = Array.make config.ring None;
    ring_next = 0;
    countdown = config.rate;
    seen = 0;
    sampled = 0;
    on_sample = None;
  }

let config t = t.cfg
let seen t = t.seen
let sampled t = t.sampled
let cm t = t.cm
let hll t = t.hll
let topk t = t.topk
let set_on_sample t f = t.on_sample <- Some f

let records t =
  let n = Array.length t.ring_buf in
  if n = 0 then []
  else
    let len = min t.ring_next n in
    List.init len (fun i ->
        match t.ring_buf.((t.ring_next - len + i) mod n) with
        | Some r -> r
        | None -> assert false)

(* The per-packet path.  The skip branch (all but every [rate]-th
   packet) is one decrement, a countdown test and a register-max HLL
   update — no allocation, pinned by test_flowrec.  The sampled branch
   materializes the flow key and feeds every sketch. *)
let observe t ~now_ns ~in_port pkt =
  t.seen <- t.seen + 1;
  (match pkt.Packet.l3 with
  | Packet.Ip ip ->
      Telemetry.Sketch.Hll.add t.hll
        (Int32.to_int (Ipv4_addr.to_int32 ip.Ipv4.src))
  | Packet.Arp _ | Packet.Raw _ -> ());
  t.countdown <- t.countdown - 1;
  if t.countdown <= 0 then begin
    t.countdown <- t.cfg.rate;
    let key = Packet.flow_key pkt in
    let h = Packet.Flow_key.hash ~seed:t.cfg.seed key in
    (* Scale by the sampling rate so sketch counts estimate the full
       stream (standard sFlow scaling); byte accounting matches the
       flow-table counters' [Packet.size]. *)
    let bytes = Packet.size pkt * t.cfg.rate in
    Telemetry.Sketch.Cm.update t.cm ~key:h bytes;
    Telemetry.Sketch.Topk.observe t.topk
      ~key:(Packet.Flow_key.to_string key)
      ~n:bytes;
    let r =
      {
        rc_key = key;
        rc_hash = h;
        rc_bytes = bytes;
        rc_ts_ns = now_ns;
        rc_in_port = in_port;
      }
    in
    let n = Array.length t.ring_buf in
    if n > 0 then begin
      t.ring_buf.(t.ring_next mod n) <- Some r;
      t.ring_next <- t.ring_next + 1
    end;
    t.sampled <- t.sampled + 1;
    match t.on_sample with Some f -> f r | None -> ()
  end
