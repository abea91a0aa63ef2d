open Netpkt

type arrival = Cbr of float | Poisson of float

type size = Fixed of int | Uniform of int * int | Imix

type stream = { mutable sent : int }

let sent s = s.sent

let interval_ns rng = function
  | Cbr rate ->
      if rate <= 0.0 then invalid_arg "Traffic: rate <= 0";
      int_of_float (1e9 /. rate)
  | Poisson rate ->
      if rate <= 0.0 then invalid_arg "Traffic: rate <= 0";
      Int.max 1 (int_of_float (Rng.exponential rng ~mean:(1e9 /. rate)))

(* IMIX per Agilent's classic 7:4:1 distribution. *)
let imix_sizes = [| 64; 64; 64; 64; 64; 64; 64; 594; 594; 594; 594; 1518 |]

let draw_size rng = function
  | Fixed n -> Int.max 64 n
  | Uniform (lo, hi) -> Int.max 64 (Rng.int_in rng lo hi)
  | Imix -> Rng.choose rng imix_sizes

(* A generic open-loop generator: schedules [emit] according to the
   arrival process from [start] until [stop]. *)
let generate engine ~rng ~start ~stop arrival emit =
  let stream = { sent = 0 } in
  let rec tick () =
    let now = Engine.now engine in
    if Sim_time.compare now stop < 0 then begin
      emit ();
      stream.sent <- stream.sent + 1;
      let next = interval_ns rng arrival in
      Engine.schedule_after engine next tick
    end
  in
  let start = Sim_time.max start (Engine.now engine) in
  Engine.schedule_at engine start tick;
  stream

let udp_stream ~rng ~src ~dst_mac ~dst_ip ?(src_port = 10000) ?(dst_port = 20000)
    ?start ~stop arrival size () =
  let engine = Node.engine (Host.node src) in
  let start = match start with Some s -> s | None -> Engine.now engine in
  generate engine ~rng ~start ~stop arrival (fun () ->
      let wire = draw_size rng size in
      (* Payload size so the final frame hits [wire] bytes on the wire:
         wire = max 60 (14 eth + 20 ip + 8 udp + payload) + 4 fcs. *)
      let payload_len = Int.max 10 (wire - 4 - 14 - 20 - 8) in
      let payload = Probe.encode ~sent_at:(Engine.now engine) ~pad_to:payload_len in
      let pkt =
        Packet.udp ~dst:dst_mac ~src:(Host.mac src) ~ip_src:(Host.ip src)
          ~ip_dst:dst_ip ~src_port ~dst_port payload
      in
      Host.send src pkt)

let multi_udp_stream ~rng ~src ~dests ?(skew = 0.0) ?(dst_port = 20000) ?start
    ~stop arrival size () =
  if Array.length dests = 0 then invalid_arg "Traffic.multi_udp_stream: no dests";
  let engine = Node.engine (Host.node src) in
  let start = match start with Some s -> s | None -> Engine.now engine in
  let zipf = Rng.Zipf.create ~n:(Array.length dests) ~skew in
  generate engine ~rng ~start ~stop arrival (fun () ->
      let dst_mac, dst_ip = dests.(Rng.Zipf.draw zipf rng) in
      let wire = draw_size rng size in
      let payload_len = Int.max 10 (wire - 4 - 14 - 20 - 8) in
      let payload = Probe.encode ~sent_at:(Engine.now engine) ~pad_to:payload_len in
      let src_port = 1024 + Rng.int rng 60000 in
      let pkt =
        Packet.udp ~dst:dst_mac ~src:(Host.mac src) ~ip_src:(Host.ip src)
          ~ip_dst:dst_ip ~src_port ~dst_port payload
      in
      Host.send src pkt)
