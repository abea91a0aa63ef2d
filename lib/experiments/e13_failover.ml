(* E13 (extension) — trunk failover: the trunk is HARMLESS's single point
   of failure; with a standby trunk and a watchdog, how long is the
   outage?  We run a steady probe stream, kill the primary trunk
   mid-run, and report the observed service gap for several watchdog
   periods.  (Resilience is the theme of the COST RECODIS action the
   paper acknowledges.) *)

open Simnet
open Ethswitch

type row = {
  watchdog_ms : int;
  gap_ms : float;     (* longest inter-arrival gap at the receiver *)
  lost : int;         (* probes lost during the outage *)
  failed_over : bool;
}

let probe_rate = 2000.0 (* per second -> 0.5 ms spacing *)
let fail_at = Sim_time.us 50_700
let run_until = Sim_time.ms 150

let measure ~watchdog_ms () =
  let engine = Engine.create () in
  let legacy = Legacy_switch.create engine ~name:"resilient" ~ports:4 () in
  let device = Mgmt.Device.create ~switch:legacy ~vendor:Mgmt.Device.Cisco_like () in
  let fo =
    Common.built
      (Harmless.Failover.provision engine ~device ~primary_trunk:2
         ~backup_trunk:3 ~access_ports:[ 0; 1 ] ())
  in
  let hosts, _ =
    Harmless.Deployment.attach_hosts engine ~host_link:Link.gige
      [| Legacy_switch.node legacy |] ~per_node:2
  in
  let primary, _ = Harmless.Failover.connect_trunks fo in
  let ctrl = Sdnctl.Controller.create engine () in
  Sdnctl.Controller.add_app ctrl (Common.proactive_l2 ~num_hosts:2);
  ignore (Sdnctl.Controller.attach_switch ctrl (Harmless.Failover.ss2 fo));
  Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 5));
  Harmless.Failover.start_watchdog fo ~period:(Sim_time.ms watchdog_ms);
  (* Record arrival times at host 1. *)
  let arrivals = ref [] in
  Host.on_receive hosts.(1) (fun _ ->
      arrivals := Sim_time.to_ns (Engine.now engine) :: !arrivals);
  let stream =
    Traffic.udp_stream ~rng:(Rng.create 9) ~src:hosts.(0)
      ~dst_mac:(Host.mac hosts.(1))
      ~dst_ip:(Host.ip hosts.(1))
      ~stop:(Sim_time.add (Engine.now engine) run_until)
      (Traffic.Cbr probe_rate) (Traffic.Fixed 128) ()
  in
  Engine.schedule_after engine fail_at (fun () -> Link.disconnect primary);
  Common.run_for engine (run_until + Sim_time.ms 10);
  let times = List.rev !arrivals in
  let rec max_gap best = function
    | a :: (b :: _ as rest) -> max_gap (Stdlib.max best (b - a)) rest
    | [ _ ] | [] -> best
  in
  {
    watchdog_ms;
    gap_ms = float_of_int (max_gap 0 times) /. 1e6;
    lost = Traffic.sent stream - List.length times;
    failed_over = Harmless.Failover.active fo = `Backup;
  }

let periods = [ 1; 5; 10; 25 ]

let rows () = List.map (fun ms -> measure ~watchdog_ms:ms ()) periods

let run () =
  let rows = rows () in
  Tables.print
    ~title:
      "E13: trunk failover (primary killed at t=55.7ms, 2kpps probe stream)"
    ~header:[ "watchdog period"; "service gap"; "probes lost"; "failed over" ]
    (List.map
       (fun r ->
         [
           Printf.sprintf "%d ms" r.watchdog_ms;
           Printf.sprintf "%.1f ms" r.gap_ms;
           string_of_int r.lost;
           (if r.failed_over then "yes" else "NO");
         ])
       rows);
  Printf.printf
    "\nthe outage tracks the watchdog period: detection dominates, the\n\
     reconfiguration itself (NAPALM commit + SS_1 rule swap) is instant\n\
     in simulated time.\n";
  rows
