open Netpkt

type state = Listening | Syn_sent | Syn_received | Established | Fin_sent | Closed

type t = {
  host : Host.t;
  engine : Engine.t;
  local_port : int;
  mss : int;
  window : int;
  rto : Sim_time.span;
  mutable state : state;
  mutable peer_mac : Mac_addr.t;
  mutable peer_ip : Ipv4_addr.t;
  mutable peer_port : int;
  (* Send side: the SYN occupies sequence 0, data bytes occupy 1.. so the
     byte at tx offset [i] has sequence [i + 1]. *)
  tx : Buffer.t;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable fin_queued : bool;
  mutable fin_seq : int option;
  (* Receive side. *)
  rx : Buffer.t;
  mutable rcv_nxt : int;
  mutable peer_fin : bool;
  mutable retransmissions : int;
  mutable timer_generation : int;
}

let state t = t.state
let received t = Buffer.contents t.rx
let bytes_acked t = Int.max 0 (Int.min (t.snd_una - 1) (Buffer.length t.tx))
let retransmissions t = t.retransmissions

let data_end t = 1 + Buffer.length t.tx

let emit t ~flags ~seq payload =
  let seg =
    Tcp.make ~src_port:t.local_port ~dst_port:t.peer_port
      ~seq:(Int32.of_int seq)
      ~ack_no:(Int32.of_int t.rcv_nxt)
      ~flags ~window:65535 payload
  in
  Host.send t.host
    (Packet.make ~dst:t.peer_mac ~src:(Host.mac t.host)
       (Packet.Ip (Ipv4.make ~src:(Host.ip t.host) ~dst:t.peer_ip (Ipv4.Tcp seg))))

let segment_at t seq =
  let offset = seq - 1 in
  let len = Int.min t.mss (Buffer.length t.tx - offset) in
  Buffer.sub t.tx offset len

(* ---- retransmission timer ---- *)

let rec arm_timer t =
  t.timer_generation <- t.timer_generation + 1;
  let generation = t.timer_generation in
  Engine.schedule_after t.engine t.rto (fun () ->
      if generation = t.timer_generation && t.state <> Closed then on_timeout t)

and on_timeout t =
  if t.snd_una < t.snd_nxt then begin
    t.retransmissions <- t.retransmissions + 1;
    (match t.state with
    | Syn_sent -> emit t ~flags:Tcp.syn ~seq:0 ""
    | Syn_received -> emit t ~flags:Tcp.syn_ack ~seq:0 ""
    | Established | Fin_sent | Listening | Closed ->
        if t.snd_una < data_end t then
          emit t ~flags:Tcp.ack_only ~seq:t.snd_una (segment_at t t.snd_una)
        else
          (* only the FIN is outstanding *)
          emit t ~flags:Tcp.fin_ack ~seq:(data_end t) "");
    arm_timer t
  end

(* ---- sending ---- *)

let rec pump t =
  match t.state with
  | Established | Fin_sent ->
      let had_outstanding = t.snd_una < t.snd_nxt in
      let window_bytes = t.window * t.mss in
      let progressed = ref false in
      while t.snd_nxt < data_end t && t.snd_nxt - t.snd_una < window_bytes do
        let payload = segment_at t t.snd_nxt in
        emit t ~flags:Tcp.ack_only ~seq:t.snd_nxt payload;
        t.snd_nxt <- t.snd_nxt + String.length payload;
        progressed := true
      done;
      if t.fin_queued && t.fin_seq = None && t.snd_nxt = data_end t then begin
        emit t ~flags:Tcp.fin_ack ~seq:t.snd_nxt "";
        t.fin_seq <- Some t.snd_nxt;
        t.snd_nxt <- t.snd_nxt + 1;
        t.state <- Fin_sent;
        progressed := true
      end;
      if !progressed && not had_outstanding then arm_timer t
  | Listening | Syn_sent | Syn_received | Closed -> ()

and send t data =
  if t.state = Closed || t.fin_queued then
    invalid_arg "Tcp_session.send: connection closing";
  Buffer.add_string t.tx data;
  pump t

let close t =
  if t.state <> Closed && not t.fin_queued then begin
    t.fin_queued <- true;
    pump t
  end

(* ---- receiving ---- *)

let maybe_close t =
  (match t.fin_seq with
  | Some f when t.snd_una >= f + 1 && t.peer_fin -> t.state <- Closed
  | Some _ | None -> ());
  if t.state = Closed then t.timer_generation <- t.timer_generation + 1

let handle_segment t (pkt : Packet.t) (ip_hdr : Ipv4.t) (seg : Tcp.t) =
  let seq = Int32.to_int seg.Tcp.seq in
  let ack = Int32.to_int seg.Tcp.ack_no in
  (match (t.state, seg.Tcp.flags.Tcp.syn, seg.Tcp.flags.Tcp.ack) with
  | Listening, true, false ->
      t.peer_mac <- pkt.Packet.src;
      t.peer_ip <- ip_hdr.Ipv4.src;
      t.peer_port <- seg.Tcp.src_port;
      t.rcv_nxt <- seq + 1;
      t.state <- Syn_received;
      t.snd_una <- 0;
      t.snd_nxt <- 1;
      emit t ~flags:Tcp.syn_ack ~seq:0 "";
      arm_timer t
  | Syn_sent, true, true ->
      t.rcv_nxt <- seq + 1;
      t.snd_una <- Int.max t.snd_una ack;
      t.state <- Established;
      emit t ~flags:Tcp.ack_only ~seq:t.snd_nxt "";
      pump t
  | (Syn_received | Established | Fin_sent), _, _ ->
      (* ACK processing *)
      if seg.Tcp.flags.Tcp.ack then begin
        if ack > t.snd_una then begin
          t.snd_una <- ack;
          if t.snd_una < t.snd_nxt then arm_timer t
          else t.timer_generation <- t.timer_generation + 1
        end;
        if t.state = Syn_received && t.snd_una >= 1 then t.state <- Established
      end;
      (* in-order data *)
      let len = String.length seg.Tcp.payload in
      let advanced = ref false in
      if len > 0 then
        if seq = t.rcv_nxt then begin
          Buffer.add_string t.rx seg.Tcp.payload;
          t.rcv_nxt <- t.rcv_nxt + len;
          advanced := true
        end
        else advanced := true (* duplicate or out of order: re-ACK below *);
      (* FIN *)
      if seg.Tcp.flags.Tcp.fin && seq + len = t.rcv_nxt then begin
        t.rcv_nxt <- t.rcv_nxt + 1;
        t.peer_fin <- true;
        advanced := true;
        (* politely finish our own side too *)
        if not t.fin_queued then close t
      end;
      if !advanced then emit t ~flags:Tcp.ack_only ~seq:t.snd_nxt "";
      maybe_close t;
      pump t
  | (Listening | Syn_sent | Closed), _, _ -> ());
  maybe_close t

let wants t (ip_hdr : Ipv4.t) (seg : Tcp.t) =
  seg.Tcp.dst_port = t.local_port
  &&
  match t.state with
  | Listening -> seg.Tcp.flags.Tcp.syn && not seg.Tcp.flags.Tcp.ack
  | Closed -> false
  | Syn_sent | Syn_received | Established | Fin_sent ->
      Ipv4_addr.equal ip_hdr.Ipv4.src t.peer_ip && seg.Tcp.src_port = t.peer_port

let make host ~local_port ~state ~peer_mac ~peer_ip ~peer_port ~mss ~window ~rto =
  let t =
    {
      host;
      engine = Node.engine (Host.node host);
      local_port;
      mss;
      window;
      rto;
      state;
      peer_mac;
      peer_ip;
      peer_port;
      tx = Buffer.create 1024;
      snd_una = 0;
      snd_nxt = 0;
      fin_queued = false;
      fin_seq = None;
      rx = Buffer.create 1024;
      rcv_nxt = 0;
      peer_fin = false;
      retransmissions = 0;
      timer_generation = 0;
    }
  in
  Host.on_receive host (fun pkt ->
      match pkt.Packet.l3 with
      | Packet.Ip ({ Ipv4.payload = Ipv4.Tcp seg; _ } as ip_hdr)
        when Ipv4_addr.equal ip_hdr.Ipv4.dst (Host.ip host) && wants t ip_hdr seg ->
          handle_segment t pkt ip_hdr seg
      | Packet.Ip _ | Packet.Arp _ | Packet.Raw _ -> ());
  t

let listen host ~port =
  make host ~local_port:port ~state:Listening ~peer_mac:Mac_addr.zero
    ~peer_ip:Ipv4_addr.any ~peer_port:0 ~mss:1460 ~window:8 ~rto:(Sim_time.ms 20)

let connect host ~dst_mac ~dst_ip ~dst_port ?(src_port = 45000) ?(mss = 1460)
    ?(window = 8) ?(rto = Sim_time.ms 20) () =
  let t =
    make host ~local_port:src_port ~state:Syn_sent ~peer_mac:dst_mac
      ~peer_ip:dst_ip ~peer_port:dst_port ~mss ~window ~rto
  in
  t.snd_una <- 0;
  t.snd_nxt <- 1;
  emit t ~flags:Tcp.syn ~seq:0 "";
  arm_timer t;
  t
