(* DNS-aware filtering: parental control without a static site table.

     dune exec examples/dns_filtering.exe

   The controller snoops DNS responses flowing through the migrated
   switch; the instant a forbidden name resolves, a drop rule for
   (user, resolved address) is pinned — the user's browser never gets a
   single packet through, even though the DNS lookup itself succeeded. *)

open Simnet

let kid = 0
let adult = 1
let dns_server = 2
let web_server = 3
let forbidden = "forbidden.example"

let () =
  let engine = Engine.create () in
  let deployment =
    match Harmless.Deployment.build_harmless engine ~num_hosts:4 () with
    | Ok d -> d
    | Error msg -> failwith msg
  in
  let guard =
    Sdnctl.Dns_guard.create
      ~blocked:[ (Harmless.Deployment.host_ip kid, forbidden) ]
      ()
  in
  let ctrl = Sdnctl.Controller.create engine () in
  Sdnctl.Controller.add_app ctrl (Sdnctl.Dns_guard.app guard);
  Sdnctl.Controller.add_app ctrl (Sdnctl.Rate_limiter.table1_l2 ~num_hosts:4);
  ignore
    (Sdnctl.Controller.attach_switch ctrl
       (Harmless.Deployment.controller_switch deployment));
  Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 5));

  Host.serve_dns
    (Harmless.Deployment.host deployment dns_server)
    ~records:[ (forbidden, Harmless.Deployment.host_ip web_server) ];
  Host.serve_http (Harmless.Deployment.host deployment web_server) ~pages:[ "/" ];

  (* Both users resolve the forbidden name... *)
  List.iter
    (fun u ->
      Host.resolve
        (Harmless.Deployment.host deployment u)
        ~server_mac:(Harmless.Deployment.host_mac dns_server)
        ~server_ip:(Harmless.Deployment.host_ip dns_server)
        forbidden)
    [ kid; adult ];
  Engine.run engine ~until:(Sim_time.add (Engine.now engine) (Sim_time.ms 30));
  List.iter
    (fun u ->
      let h = Harmless.Deployment.host deployment u in
      match Host.resolved h with
      | (name, addr) :: _ ->
          Printf.printf "%s resolved %s -> %s\n" (Host.name h) name
            (Netpkt.Ipv4_addr.to_string addr)
      | [] -> Printf.printf "%s got no DNS answer\n" (Host.name h))
    [ kid; adult ];
  Printf.printf "guard snooped %d binding(s), pinned %d drop rule(s)\n"
    (List.length (Sdnctl.Dns_guard.bindings guard))
    (Sdnctl.Dns_guard.blocks_installed guard);

  (* ...then both try to browse there. *)
  List.iteri
    (fun i u ->
      Host.http_get
        (Harmless.Deployment.host deployment u)
        ~server_mac:(Harmless.Deployment.host_mac web_server)
        ~server_ip:(Harmless.Deployment.host_ip web_server)
        ~host:forbidden ~path:"/" ~src_port:(41000 + i))
    [ kid; adult ];
  Engine.run engine ~until:(Sim_time.add (Engine.now engine) (Sim_time.ms 30));

  let got u = Host.http_responses (Harmless.Deployment.host deployment u) in
  Printf.printf "kid's fetch:   %s\n" (if got kid > 0 then "200 OK (WRONG)" else "blocked");
  Printf.printf "adult's fetch: %s\n" (if got adult > 0 then "200 OK" else "blocked (WRONG)");
  if got kid = 0 && got adult = 1 then print_endline "dns filtering OK"
  else begin
    print_endline "dns filtering FAILED";
    exit 1
  end
