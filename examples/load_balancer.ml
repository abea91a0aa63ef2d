(* Use case (a) of the paper: an in-network load balancer on a migrated
   legacy switch.

     dune exec examples/load_balancer.exe

   Hosts 0-2 are web backends, host 5 is the client side.  A virtual IP
   is spread over the backends by an OpenFlow select group in SS_2; the
   client never learns the backends exist. *)

open Simnet
open Netpkt

let vip_ip = Ipv4_addr.of_octets 10 0 0 100
let vip_mac = Mac_addr.make_local 100
let backends = [ 0; 1; 2 ]
let client = 5

let () =
  let engine = Engine.create () in
  let deployment =
    match Harmless.Deployment.build_harmless engine ~num_hosts:6 () with
    | Ok d -> d
    | Error msg -> failwith msg
  in
  let ctrl = Sdnctl.Controller.create engine () in
  Sdnctl.Controller.add_app ctrl
    (Sdnctl.Load_balancer.create ~vip_ip ~vip_mac ~ingress_port:client
       ~backends:
         (List.map
            (fun b ->
              {
                Sdnctl.Load_balancer.backend_mac = Harmless.Deployment.host_mac b;
                backend_ip = Harmless.Deployment.host_ip b;
                backend_port = b;
              })
            backends));
  ignore
    (Sdnctl.Controller.attach_switch ctrl
       (Harmless.Deployment.controller_switch deployment));
  Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 5));

  (* Backends serve '/'; the client fires 120 requests at the VIP from
     fresh source ports (one flow each). *)
  List.iter
    (fun b -> Host.serve_http (Harmless.Deployment.host deployment b) ~pages:[ "/" ])
    backends;
  let c = Harmless.Deployment.host deployment client in
  let rng = Rng.create 2024 in
  for i = 0 to 119 do
    let src_port = 1024 + Rng.int rng 60000 in
    Engine.schedule_after engine (Sim_time.us (i * 100)) (fun () ->
        Host.http_get c ~server_mac:vip_mac ~server_ip:vip_ip ~host:"www.vip.example"
          ~path:"/" ~src_port)
  done;
  Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 100));

  let ok = Host.http_status_count c ~status:200 in
  Printf.printf "client got %d/120 responses (all appear to come from %s)\n" ok
    (Ipv4_addr.to_string vip_ip);
  List.iter
    (fun b ->
      let served = Host.received_count (Harmless.Deployment.host deployment b) in
      Printf.printf "  backend %d handled %d frames\n" b served)
    backends;
  if ok = 120 then print_endline "load balancer OK" else exit 1
