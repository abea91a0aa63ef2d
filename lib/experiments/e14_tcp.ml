(* E14 (extension) — application-level proof: a reliable TCP transfer
   through the HARMLESS fabric, with increasingly lossy access links.
   The claim behind every other experiment is that applications do not
   notice the migration; here an actual transport protocol (handshake,
   windows, retransmission) runs over it and delivers byte-exact data. *)

open Simnet

let payload_size = 200_000
let payload = String.init payload_size (fun i -> Char.chr ((i * 31) land 0xff))

type row = {
  loss_pct : float;
  delivered : bool;
  duration_ms : float;
  goodput_mbps : float;
  retransmissions : int;
}

let measure ~loss () =
  let engine = Engine.create () in
  let host_link = Link.config ~loss ~impair_seed:41 () in
  let d =
    Common.built
      (Harmless.Deployment.build_harmless engine ~num_hosts:2 ~host_link ())
  in
  ignore
    (Common.attach_with_apps d [ Common.proactive_l2 ~num_hosts:2 ]);
  let started = Engine.now engine in
  let server = Tcp_session.listen (Harmless.Deployment.host d 1) ~port:80 in
  let client =
    Tcp_session.connect
      (Harmless.Deployment.host d 0)
      ~dst_mac:(Harmless.Deployment.host_mac 1)
      ~dst_ip:(Harmless.Deployment.host_ip 1)
      ~dst_port:80 ()
  in
  Tcp_session.send client payload;
  Tcp_session.close client;
  Engine.run engine ~max_events:20_000_000;
  let seconds =
    Sim_time.span_to_seconds (Sim_time.diff (Engine.now engine) started)
  in
  {
    loss_pct = loss *. 100.0;
    delivered = String.equal payload (Tcp_session.received server);
    duration_ms = seconds *. 1e3;
    goodput_mbps =
      (if seconds > 0.0 then float_of_int (payload_size * 8) /. seconds /. 1e6
       else 0.0);
    retransmissions = Tcp_session.retransmissions client;
  }

let losses = [ 0.0; 0.01; 0.05; 0.10 ]

let rows () = List.map (fun loss -> measure ~loss ()) losses

let run () =
  let rows = rows () in
  Tables.print
    ~title:
      (Printf.sprintf
         "E14: %d KB TCP transfer through HARMLESS over lossy access links"
         (payload_size / 1000))
    ~header:[ "link loss"; "delivered"; "duration"; "goodput"; "rtx" ]
    (List.map
       (fun r ->
         [
           Printf.sprintf "%.0f%%" r.loss_pct;
           (if r.delivered then "byte-exact" else "CORRUPT");
           Printf.sprintf "%.1f ms" r.duration_ms;
           Printf.sprintf "%.1f Mbps" r.goodput_mbps;
           string_of_int r.retransmissions;
         ])
       rows);
  Printf.printf
    "\nreliability comes from the endpoints (fixed-window TCP, 20 ms RTO);\n\
     the fabric just forwards — goodput degrades with loss, correctness never.\n";
  rows
