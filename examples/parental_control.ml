(* Use case (c) of the paper: per-user web filtering, changed on-the-fly.

     dune exec examples/parental_control.exe

   Host 0 is the kid's laptop, host 1 a parent's, hosts 2 and 3 serve
   homework.example and games.example.  The kid starts blocked from the
   games site; mid-run the parent relents and unblocks it. *)

open Simnet

let kid = 0
let parent = 1
let homework_srv = 2
let games_srv = 3
let homework = "www.homework.example"
let games = "www.games.example"

let () =
  let engine = Engine.create () in
  let deployment =
    match Harmless.Deployment.build_harmless engine ~num_hosts:4 () with
    | Ok d -> d
    | Error msg -> failwith msg
  in
  let sites =
    [
      (homework, Harmless.Deployment.host_ip homework_srv);
      (games, Harmless.Deployment.host_ip games_srv);
    ]
  in
  let pc =
    Sdnctl.Parental_control.create ~sites
      ~blocked:[ (Harmless.Deployment.host_ip kid, games) ]
      ()
  in
  let ctrl = Sdnctl.Controller.create engine () in
  Sdnctl.Controller.add_app ctrl (Sdnctl.Parental_control.app pc);
  Sdnctl.Controller.add_app ctrl (Sdnctl.L2_learning.create ());
  ignore
    (Sdnctl.Controller.attach_switch ctrl
       (Harmless.Deployment.controller_switch deployment));
  Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 5));
  Host.serve_http (Harmless.Deployment.host deployment homework_srv) ~pages:[ "/" ];
  Host.serve_http (Harmless.Deployment.host deployment games_srv) ~pages:[ "/" ];

  let fetch who ~server ~host ~port =
    let u = Harmless.Deployment.host deployment who in
    let before = Host.http_responses u in
    Host.http_get u
      ~server_mac:(Harmless.Deployment.host_mac server)
      ~server_ip:(Harmless.Deployment.host_ip server)
      ~host ~path:"/" ~src_port:port;
    Engine.run engine ~until:(Sim_time.add (Engine.now engine) (Sim_time.ms 30));
    Host.http_responses u > before
  in
  let show who label ok = Printf.printf "%-8s %-22s -> %s\n" who label
      (if ok then "200 OK" else "blocked") in

  show "kid" homework (fetch kid ~server:homework_srv ~host:homework ~port:5001);
  let kid_games_before = fetch kid ~server:games_srv ~host:games ~port:5002 in
  show "kid" games kid_games_before;
  show "parent" games (fetch parent ~server:games_srv ~host:games ~port:5003);

  print_endline "-- parent relents: unblocking on the fly --";
  Sdnctl.Parental_control.unblock pc ctrl
    ~user:(Harmless.Deployment.host_ip kid) ~host:games;
  Engine.run engine ~until:(Sim_time.add (Engine.now engine) (Sim_time.ms 5));
  let kid_games_after = fetch kid ~server:games_srv ~host:games ~port:5004 in
  show "kid" games kid_games_after;

  if (not kid_games_before) && kid_games_after then
    print_endline "parental control OK"
  else begin
    print_endline "parental control FAILED";
    exit 1
  end
