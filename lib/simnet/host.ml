open Netpkt

type t = {
  node : Node.t;
  engine : Engine.t;
  name : string;
  mac : Mac_addr.t;
  ip : Ipv4_addr.t;
  mutable udp_rx : int;
  mutable echo_replies : int;
  mutable http_responses : (int * string) list; (* newest first *)
  mutable udp_echo_ports : int list;
  mutable pages : string list option; (* Some = serving http *)
  mutable dns_zone : (string * Ipv4_addr.t) list option; (* Some = dns server *)
  mutable resolved : (string * Ipv4_addr.t) list; (* newest first *)
  mutable nxdomains : int;
  mutable next_dns_id : int;
  mutable arp_cache : (Ipv4_addr.t * Mac_addr.t) list;
  latency : Telemetry.Hdr.t;
}

let node t = t.node
let name t = t.name
let mac t = t.mac
let ip t = t.ip
let send t pkt =
  if Telemetry.Trace.enabled () then
    Telemetry.Trace.emit
      ~ts_ns:(Sim_time.to_ns (Engine.now t.engine))
      ~component:t.name ~layer:Telemetry.Trace.Host ~stage:"tx" ~port:0
      ~cycles:0 (* endpoint stack cost is out of scope for the model *) pkt;
  Node.transmit t.node ~port:0 pkt
let enable_udp_echo t ~port = t.udp_echo_ports <- port :: t.udp_echo_ports
let serve_http t ~pages = t.pages <- Some pages
let serve_dns t ~records = t.dns_zone <- Some records
let resolved t = List.rev t.resolved
let nxdomains t = t.nxdomains
let received_count t = Node.rx_packets t.node ~port:0
let udp_received t = t.udp_rx
let http_responses t = List.rev t.http_responses
let echo_replies t = t.echo_replies
let latency t = t.latency
let arp_cache t = t.arp_cache
let on_receive t f =
  Node.add_tap t.node (fun dir _ pkt -> match dir with Node.Rx -> f pkt | Node.Tx -> ())

let learn_arp t ip mac =
  if not (List.exists (fun (i, _) -> Ipv4_addr.equal i ip) t.arp_cache) then
    t.arp_cache <- (ip, mac) :: t.arp_cache

let handle_arp t (pkt : Packet.t) arp =
  learn_arp t arp.Arp.spa arp.Arp.sha;
  match arp.Arp.op with
  | Arp.Request when Ipv4_addr.equal arp.Arp.tpa t.ip ->
      let reply = Arp.reply_to arp ~sha:t.mac in
      send t (Packet.make ~dst:pkt.Packet.src ~src:t.mac (Packet.Arp reply))
  | Arp.Request | Arp.Reply -> ()

let handle_icmp t (ip_hdr : Ipv4.t) msg =
  match msg with
  | Icmp.Echo_request _ -> (
      match Icmp.reply_to msg with
      | Some reply ->
          (* Reply straight to the sender's MAC, which we learned from the
             frame via the ARP cache or use the broadcast-free fast path
             below. *)
          let dst_mac =
            match
              List.find_opt (fun (i, _) -> Ipv4_addr.equal i ip_hdr.Ipv4.src) t.arp_cache
            with
            | Some (_, m) -> m
            | None -> Mac_addr.broadcast
          in
          send t
            (Packet.make ~dst:dst_mac ~src:t.mac
               (Packet.Ip (Ipv4.make ~src:t.ip ~dst:ip_hdr.Ipv4.src (Ipv4.Icmp reply))))
      | None -> ())
  | Icmp.Echo_reply _ -> t.echo_replies <- t.echo_replies + 1
  | Icmp.Dest_unreachable _ | Icmp.Time_exceeded _ -> ()

let handle_dns t (pkt : Packet.t) (ip_hdr : Ipv4.t) (dgram : Udp.t) =
  match
    (try Some (Dns_lite.decode dgram.Udp.payload)
     with Wire.Truncated _ | Wire.Malformed _ -> None)
  with
  | None -> ()
  | Some msg ->
      if msg.Dns_lite.response then begin
        if msg.Dns_lite.rcode <> 0 then t.nxdomains <- t.nxdomains + 1;
        List.iter
          (fun (a : Dns_lite.answer) ->
            t.resolved <- (a.Dns_lite.name, a.Dns_lite.addr) :: t.resolved)
          msg.Dns_lite.answers
      end
      else
        match t.dns_zone with
        | None -> ()
        | Some zone ->
            let reply = Dns_lite.respond msg ~addrs:zone in
            let out =
              Udp.make ~src_port:Dns_lite.server_port
                ~dst_port:dgram.Udp.src_port (Dns_lite.encode reply)
            in
            send t
              (Packet.make ~dst:pkt.Packet.src ~src:t.mac
                 (Packet.Ip
                    (Ipv4.make ~src:t.ip ~dst:ip_hdr.Ipv4.src (Ipv4.Udp out))))

let handle_udp t (pkt : Packet.t) (ip_hdr : Ipv4.t) (dgram : Udp.t) =
  t.udp_rx <- t.udp_rx + 1;
  if dgram.Udp.dst_port = Dns_lite.server_port
     || dgram.Udp.src_port = Dns_lite.server_port
  then handle_dns t pkt ip_hdr dgram;
  (match Probe.decode dgram.Udp.payload with
  | Some sent_at ->
      let delay = Sim_time.diff (Engine.now t.engine) sent_at in
      if delay >= 0 then Telemetry.Hdr.record t.latency delay
  | None -> ());
  if List.mem dgram.Udp.dst_port t.udp_echo_ports then begin
    let echo =
      Udp.make ~src_port:dgram.Udp.dst_port ~dst_port:dgram.Udp.src_port
        dgram.Udp.payload
    in
    send t
      (Packet.make ~dst:pkt.Packet.src ~src:t.mac
         (Packet.Ip (Ipv4.make ~src:t.ip ~dst:ip_hdr.Ipv4.src (Ipv4.Udp echo))))
  end

let handle_tcp t (pkt : Packet.t) (ip_hdr : Ipv4.t) (seg : Tcp.t) =
  match t.pages with
  | None -> (
      (* Client side: record HTTP responses. *)
      match Http_lite.parse_response seg.Tcp.payload with
      | Some resp ->
          t.http_responses <- (resp.Http_lite.status, resp.Http_lite.resp_body) :: t.http_responses
      | None -> ())
  | Some pages -> (
      match Http_lite.parse_request seg.Tcp.payload with
      | None -> ()
      | Some req ->
          let resp =
            if List.mem req.Http_lite.path pages then
              Http_lite.ok ("contents of " ^ req.Http_lite.path ^ "\n")
            else
              {
                Http_lite.status = 404;
                reason = "Not Found";
                resp_headers = [];
                resp_body = "no such page\n";
              }
          in
          let reply_seg =
            Tcp.make ~src_port:seg.Tcp.dst_port ~dst_port:seg.Tcp.src_port
              ~flags:Tcp.ack_only
              (Http_lite.render_response resp)
          in
          send t
            (Packet.make ~dst:pkt.Packet.src ~src:t.mac
               (Packet.Ip (Ipv4.make ~src:t.ip ~dst:ip_hdr.Ipv4.src (Ipv4.Tcp reply_seg)))))

let handle t pkt =
  if Telemetry.Trace.enabled () then
    Telemetry.Trace.emit
      ~ts_ns:(Sim_time.to_ns (Engine.now t.engine))
      ~component:t.name ~layer:Telemetry.Trace.Host ~stage:"rx" ~port:0
      ~cycles:0 (* endpoint stack cost is out of scope for the model *) pkt;
  match pkt.Packet.l3 with
  | Packet.Arp arp -> handle_arp t pkt arp
  | Packet.Ip ip_hdr ->
      let addressed_to_us =
        Ipv4_addr.equal ip_hdr.Ipv4.dst t.ip
        && (Mac_addr.equal pkt.Packet.dst t.mac || Mac_addr.is_broadcast pkt.Packet.dst)
      in
      learn_arp t ip_hdr.Ipv4.src pkt.Packet.src;
      if addressed_to_us then begin
        match ip_hdr.Ipv4.payload with
        | Ipv4.Icmp msg -> handle_icmp t ip_hdr msg
        | Ipv4.Udp dgram -> handle_udp t pkt ip_hdr dgram
        | Ipv4.Tcp seg -> handle_tcp t pkt ip_hdr seg
        | Ipv4.Raw _ -> ()
      end
  | Packet.Raw _ -> ()

let create engine ~name ~mac ~ip () =
  let node = Node.create engine ~name ~ports:1 in
  let t =
    {
      node;
      engine;
      name;
      mac;
      ip;
      udp_rx = 0;
      echo_replies = 0;
      http_responses = [];
      udp_echo_ports = [];
      pages = None;
      dns_zone = None;
      resolved = [];
      nxdomains = 0;
      next_dns_id = 1;
      arp_cache = [];
      latency = Telemetry.Hdr.create ();
    }
  in
  Node.set_handler node (fun _node ~in_port:_ pkt -> handle t pkt);
  t

let http_get t ~server_mac ~server_ip ~host ~path ~src_port =
  let req = Http_lite.get ~host path in
  let seg =
    Tcp.make ~src_port ~dst_port:80 ~flags:Tcp.ack_only (Http_lite.render_request req)
  in
  send t
    (Packet.make ~dst:server_mac ~src:t.mac
       (Packet.Ip (Ipv4.make ~src:t.ip ~dst:server_ip (Ipv4.Tcp seg))))

let resolve t ~server_mac ~server_ip name =
  let id = t.next_dns_id in
  t.next_dns_id <- t.next_dns_id + 1;
  let q = Dns_lite.query ~id name in
  let dgram =
    Udp.make ~src_port:(20000 + (id land 0x3fff)) ~dst_port:Dns_lite.server_port
      (Dns_lite.encode q)
  in
  send t
    (Packet.make ~dst:server_mac ~src:t.mac
       (Packet.Ip (Ipv4.make ~src:t.ip ~dst:server_ip (Ipv4.Udp dgram))))

let ping t ~dst_mac ~dst_ip ~seq =
  send t (Packet.icmp_echo ~dst:dst_mac ~src:t.mac ~ip_src:t.ip ~ip_dst:dst_ip ~id:1 ~seq)
