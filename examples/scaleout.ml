(* Scale-out: one server, three legacy switches, one logical OpenFlow
   switch — the deployment the cost model actually prices.

     dune exec examples/scaleout.exe

   Twelve hosts across three 4-port legacy switches; the controller sees
   a single 12-port switch and its apps need no changes.  A host on
   switch 0 pings a host on switch 2, crossing both trunks through the
   shared SS_2. *)

open Simnet

let () =
  let engine = Engine.create () in
  let deployment =
    match
      Harmless.Deployment.build_scaleout engine ~num_switches:3
        ~hosts_per_switch:4 ()
    with
    | Ok d -> d
    | Error msg -> failwith msg
  in
  (match deployment.Harmless.Deployment.kind with
  | Harmless.Deployment.Scaled { scale; _ } ->
      let server = scale.Harmless.Scaleout.server in
      Printf.printf "provisioned %d translators feeding one %d-port SS_2\n"
        (Array.length server.Harmless.Server.ss1s)
        (Harmless.Scaleout.total_ports scale);
      Array.iteri
        (fun m map ->
          let offset = server.Harmless.Server.offsets.(m) in
          Printf.printf "  member %d: %s (SS_2 ports %d..%d)\n" m
            (Format.asprintf "%a" Harmless.Port_map.pp map)
            offset
            (offset + Harmless.Port_map.size map - 1))
        scale.Harmless.Scaleout.port_maps
  | _ -> assert false);

  let ctrl = Sdnctl.Controller.create engine () in
  Sdnctl.Controller.add_app ctrl (Sdnctl.L2_learning.create ());
  ignore
    (Sdnctl.Controller.attach_switch ctrl
       (Harmless.Deployment.controller_switch deployment));
  Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 5));

  (* host 1 (switch 0) <-> host 10 (switch 2) *)
  let src = 1 and dst = 10 in
  let h = Harmless.Deployment.host deployment src in
  Host.ping h
    ~dst_mac:(Harmless.Deployment.host_mac dst)
    ~dst_ip:(Harmless.Deployment.host_ip dst)
    ~seq:1;
  Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 100));
  Printf.printf "cross-switch ping %d -> %d: %s\n" src dst
    (if Host.echo_replies h = 1 then "reply received" else "FAILED");

  Format.printf "\nwhat this hardware costs per OpenFlow port:\n%a"
    Costmodel.Scenario.pp_bill
    (Costmodel.Scenario.harmless_brownfield ~ports:12);
  if Host.echo_replies h = 1 then print_endline "scaleout OK" else exit 1
