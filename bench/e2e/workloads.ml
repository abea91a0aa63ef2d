(* The four end-to-end workloads.  Each one builds a real deployment
   through Harmless.Deployment, offers seeded traffic to it, and judges
   every offered operation after the run drains.

   Why these four:
   - hairpin-64b: the smallest frames through the whole HARMLESS path
     (legacy -> trunk -> SS_1 -> SS_2 -> SS_1 -> legacy), so per-packet
     cost dominates.  Frame-format, tag push/pop and PMD batching work
     must show here.
   - direct-64b: the identical input on plain OpenFlow (no legacy switch,
     no translator).  A translator- or VLAN-only change must not move it,
     and direct/hairpin throughput is the paper's penalty in wall time.
   - zipf-imix-ovs: 48 ports, the OVS-like caching dataplane, 1000 ACL
     rules and a fresh microflow per packet, so the exact-match cache is
     full and thrashing: cache eviction and classification dominate.
   - reactive-http: controller in the loop.  Sniffed GETs become
     packet-in -> app -> flow-mod + packet-out, and every flow-mod makes
     ESwitch recompile, so flow-table writes sit beside the data path's
     reads. *)

open Simnet
module D = Harmless.Deployment

type outcome = {
  attempted : int;
  succeeded : int;
  wrong : int;  (** operations whose observed result contradicts the expectation *)
  latency : Stats.Histogram.t;  (** modelled sim-time latency, ns *)
}

(* One round's instance of a workload, made fresh from the seed: the same
   seed always gives the same hosts, pairs, policy and schedules. *)
type instance = {
  deploy : Engine.t -> D.t;
  apps : Sdnctl.Controller.app list;
  channel_config : Sdnctl.Channel.config option;
  serve : D.t -> unit;
  offer : D.t -> Rng.t -> stop:Sim_time.t -> unit -> outcome;
      (** schedule traffic from now until [stop]; the returned function
          judges it once the engine has drained *)
}

type t = {
  name : string;
  warmup : Sim_time.span;
  measure : Sim_time.span;  (** one measured slice of traffic *)
  drain : Sim_time.span;
  slices : int;  (** measured slices per set-up *)
  make : seed:int -> instance;
}

let ok_or_fail = function Ok d -> d | Error msg -> failwith msg
let sum f xs = Array.fold_left (fun acc x -> acc + f x) 0 xs

let merged_latency hosts =
  Array.fold_left
    (fun acc h -> Stats.Histogram.merge acc (Host.latency h))
    (Stats.Histogram.create ()) hosts

let permutation rng n =
  let a = Array.init n Fun.id in
  Rng.shuffle rng a;
  a

(* ---- 64-byte line-rate pairs: hairpin-64b and direct-64b ---- *)

let pair_hosts = 8
let frame = 64
let line_rate_pps = 1e9 /. float_of_int (frame * 8)

(* 4 senders -> 4 receivers, each pair at GbE line rate.  The seed picks
   the pairing, each sender's UDP source port and its phase within one
   frame time. *)
let pairs ~harmless ~seed =
  let rng = Rng.create seed in
  let order = permutation rng pair_hosts in
  let pairs = Array.init 4 (fun k -> (order.(k), order.(k + 4))) in
  let ports = Array.map (fun _ -> 1024 + Rng.int rng 60000) pairs in
  let interval = int_of_float (1e9 /. line_rate_pps) in
  let phases = Array.map (fun _ -> Rng.int rng interval) pairs in
  let deploy engine =
    if harmless then ok_or_fail (D.build_harmless engine ~num_hosts:pair_hosts ())
    else D.build_plain_openflow engine ~num_hosts:pair_hosts ()
  in
  let offer d rng ~stop =
    let now = Engine.now d.D.engine in
    let before = Array.map (fun (_, r) -> Host.udp_received (D.host d r)) pairs in
    let streams =
      Array.mapi
        (fun k (s, r) ->
          Traffic.udp_stream ~rng:(Rng.split rng) ~src:(D.host d s)
            ~dst_mac:(D.host_mac r) ~dst_ip:(D.host_ip r) ~src_port:ports.(k)
            ~start:(Sim_time.add now phases.(k))
            ~stop (Traffic.Cbr line_rate_pps) (Traffic.Fixed frame) ())
        pairs
    in
    fun () ->
      let attempted = ref 0 and succeeded = ref 0 and wrong = ref 0 in
      Array.iteri
        (fun k (_, r) ->
          let sent = Traffic.sent streams.(k) in
          let got = Host.udp_received (D.host d r) - before.(k) in
          attempted := !attempted + sent;
          succeeded := !succeeded + Stdlib.min sent got;
          wrong := !wrong + Stdlib.max 0 (got - sent))
        pairs;
      {
        attempted = !attempted;
        succeeded = !succeeded;
        wrong = !wrong;
        latency = merged_latency (Array.map (fun (_, r) -> D.host d r) pairs);
      }
  in
  {
    deploy;
    apps = [ Experiments_lib.Common.proactive_l2 ~num_hosts:pair_hosts ];
    channel_config = None;
    serve = ignore;
    offer;
  }

let hairpin_64b =
  {
    name = "hairpin-64b";
    warmup = Sim_time.ms 1;
    measure = Sim_time.ms 1;
    drain = Sim_time.ms 1;
    slices = 10;
    make = pairs ~harmless:true;
  }

let direct_64b = { hairpin_64b with name = "direct-64b"; make = pairs ~harmless:false }

(* ---- zipf-imix-ovs ---- *)

let zipf_hosts = 48
let zipf_senders = 24
let zipf_rate_per_sender = 36_000.

(* 24 Poisson senders, each spraying IMIX frames over the other 24 hosts
   with Zipf 1.1 popularity and a random source port per packet (see
   Traffic.multi_udp_stream).  The seed picks who sends and which
   receiver is most popular. *)
let zipf ~seed =
  let rng = Rng.create seed in
  let order = permutation rng zipf_hosts in
  let senders = Array.sub order 0 zipf_senders in
  let receivers = Array.sub order zipf_senders (zipf_hosts - zipf_senders) in
  let dests = Array.map (fun r -> (D.host_mac r, D.host_ip r)) receivers in
  let deploy engine =
    ok_or_fail
      (D.build_harmless engine ~num_hosts:zipf_hosts
         ~dataplane:(Softswitch.Soft_switch.Ovs Softswitch.Ovs_like.default_config)
         ())
  in
  let offer d rng ~stop =
    let rx () = sum (fun r -> Host.udp_received (D.host d r)) receivers in
    let before = rx () in
    let streams =
      Array.map
        (fun s ->
          Traffic.multi_udp_stream ~rng:(Rng.split rng) ~src:(D.host d s) ~dests
            ~skew:1.1 ~stop (Traffic.Poisson zipf_rate_per_sender) Traffic.Imix ())
        senders
    in
    fun () ->
      let sent = sum Traffic.sent streams and got = rx () - before in
      {
        attempted = sent;
        succeeded = Stdlib.min sent got;
        wrong = Stdlib.max 0 (got - sent);
        latency = merged_latency (Array.map (D.host d) receivers);
      }
  in
  {
    deploy;
    (* 1000 filler ACL rules plus the L2 rules exceed the default 512
       control messages in flight; a deeper queue keeps the L2 rules from
       being shed. *)
    apps =
      [
        Experiments_lib.E2_throughput.filler_app;
        Experiments_lib.Common.proactive_l2 ~num_hosts:zipf_hosts;
      ];
    channel_config =
      Some { Sdnctl.Channel.default_config with Sdnctl.Channel.max_in_flight = 2048 };
    serve = ignore;
    offer;
  }

let zipf_imix_ovs =
  {
    name = "zipf-imix-ovs";
    (* 11 sim-ms is ~9.5k packets: enough to fill SS_2's 8192-entry EMC. *)
    warmup = Sim_time.ms 11;
    measure = Sim_time.us 500;
    drain = Sim_time.ms 1;
    (* Filling the caches costs seconds, so each set-up serves many
       slices. *)
    slices = 10;
    make = zipf;
  }

(* ---- reactive-http ---- *)

let clients = 16
let good_server = 16
let bad_server = 17
let good_site = "www.goodsite.example"
let bad_site = "www.badsite.example"
let pages = [ "/"; "/a" ]
let paths = [| "/"; "/a"; "/missing" |]
let good_rate = 50_000.
let bad_rate = 12_500.

type request = {
  expect : int;  (** HTTP status, or 0 when the request must be blocked *)
  sent_at : int;
  mutable status : int;  (** 0 until a response arrives *)
  mutable answered_at : int;
  mutable answers : int;
}

(* Poisson GETs: 50k/s to goodsite and 12.5k/s to badsite, from a
   uniform client, for a uniform path.  Eight clients chosen by the seed
   are sniffed by Parental_control and blocked from badsite; every other
   request must get its 200 or 404. *)
let http ~seed =
  let rng = Rng.create seed in
  let sniffed = Array.sub (permutation rng clients) 0 8 in
  let is_sniffed c = Array.exists (Int.equal c) sniffed in
  let pc =
    Sdnctl.Parental_control.create
      ~blocked:(Array.to_list (Array.map (fun c -> (D.host_ip c, bad_site)) sniffed))
      ()
  in
  let num_hosts = clients + 2 in
  let deploy engine = ok_or_fail (D.build_harmless engine ~num_hosts ()) in
  (* Requests of the current offer, keyed by client and source port.
     Ports keep counting across offers, so a late answer to a warm-up
     request can never be mistaken for a measured one. *)
  let by_port = ref (Hashtbl.create 1) in
  let next_port = Array.make clients 1024 in
  let serve d =
    Host.serve_http (D.host d good_server) ~pages;
    Host.serve_http (D.host d bad_server) ~pages;
    for c = 0 to clients - 1 do
      Host.on_receive (D.host d c) (fun pkt ->
          match pkt.Netpkt.Packet.l3 with
          | Netpkt.Packet.Ip { Netpkt.Ipv4.payload = Netpkt.Ipv4.Tcp seg; _ }
            when seg.Netpkt.Tcp.src_port = 80 -> (
              match Hashtbl.find_opt !by_port ((c lsl 16) lor seg.Netpkt.Tcp.dst_port) with
              | Some req ->
                  req.answers <- req.answers + 1;
                  req.answered_at <- Sim_time.to_ns (Engine.now d.D.engine);
                  req.status <-
                    (match Netpkt.Http_lite.parse_response seg.Netpkt.Tcp.payload with
                    | Some r -> r.Netpkt.Http_lite.status
                    | None -> -1)
              | None -> ())
          | _ -> ())
    done
  in
  let offer d rng ~stop =
    let engine = d.D.engine in
    let requests = ref [] in
    by_port := Hashtbl.create 4096;
    let get ~server ~site =
      let client = Rng.int rng clients in
      let path = Rng.choose rng paths in
      let port = next_port.(client) in
      next_port.(client) <- port + 1;
      let expect =
        if server = bad_server && is_sniffed client then 0
        else if List.mem path pages then 200
        else 404
      in
      let req =
        {
          expect;
          sent_at = Sim_time.to_ns (Engine.now engine);
          status = 0;
          answered_at = 0;
          answers = 0;
        }
      in
      Hashtbl.replace !by_port ((client lsl 16) lor port) req;
      requests := req :: !requests;
      Host.http_get (D.host d client) ~server_mac:(D.host_mac server)
        ~server_ip:(D.host_ip server) ~host:site ~path ~src_port:port
    in
    let rate = good_rate +. bad_rate in
    let rec tick () =
      if Sim_time.compare (Engine.now engine) stop < 0 then begin
        if Rng.float rng rate < good_rate then get ~server:good_server ~site:good_site
        else get ~server:bad_server ~site:bad_site;
        Engine.schedule_after engine
          (Stdlib.max 1 (int_of_float (Rng.exponential rng ~mean:(1e9 /. rate))))
          tick
      end
    in
    Engine.schedule_after engine 0 tick;
    fun () ->
      let latency = Stats.Histogram.create () in
      let succeeded = ref 0 and wrong = ref 0 in
      List.iter
        (fun r ->
          if r.expect = 0 then (if r.answers = 0 then incr succeeded else incr wrong)
          else if r.answers = 0 then () (* lost: counts as failed *)
          else if r.answers = 1 && r.status = r.expect then begin
            incr succeeded;
            Stats.Histogram.record latency (r.answered_at - r.sent_at)
          end
          else incr wrong)
        !requests;
      {
        attempted = List.length !requests;
        succeeded = !succeeded;
        wrong = !wrong;
        latency;
      }
  in
  {
    deploy;
    apps = [ Sdnctl.Parental_control.app pc; Sdnctl.L2_learning.create () ];
    channel_config = None;
    serve;
    offer;
  }

let reactive_http =
  {
    name = "reactive-http";
    warmup = Sim_time.ms 30;
    measure = Sim_time.ms 50;
    drain = Sim_time.ms 5;
    slices = 4;
    make = http;
  }

let all = [ hairpin_64b; direct_64b; zipf_imix_ovs; reactive_http ]
let find name = List.find_opt (fun w -> String.equal w.name name) all
