(* E8 — use case (c), Parental Control: per-user web-page deny lists,
   including blocking a page on-the-fly mid-run (the demo's punchline).
   Two servers host "goodsite" and "badsite"; user0 starts blocked from
   badsite, user1 gets blocked live after their first successful fetch. *)

open Simnet

let num_hosts = 5
let user0 = 0
let user1 = 1
let good_server = 2
let bad_server = 3

let good_host = "www.goodsite.example"
let bad_host = "www.badsite.example"

type fetch = { who : string; target : string; when_ : string; got_response : bool }

let fetch_and_wait engine deployment ~user ~server ~host ~port =
  let u = Harmless.Deployment.host deployment user in
  let before = Host.http_responses u in
  Host.http_get u
    ~server_mac:(Harmless.Deployment.host_mac server)
    ~server_ip:(Harmless.Deployment.host_ip server)
    ~host ~path:"/" ~src_port:port;
  Common.run_for engine (Sim_time.ms 30);
  Host.http_responses u > before

let measure () =
  let engine = Engine.create () in
  let deployment =
    Common.built (Harmless.Deployment.build_harmless engine ~num_hosts ())
  in
  let sites =
    [
      (good_host, Harmless.Deployment.host_ip good_server);
      (bad_host, Harmless.Deployment.host_ip bad_server);
    ]
  in
  let pc =
    Sdnctl.Parental_control.create ~sites
      ~blocked:[ (Harmless.Deployment.host_ip user0, bad_host) ]
      ()
  in
  let ctrl =
    Common.attach_with_apps deployment
      [ Sdnctl.Parental_control.app pc; Sdnctl.L2_learning.create () ]
  in
  Host.serve_http (Harmless.Deployment.host deployment good_server) ~pages:[ "/" ];
  Host.serve_http (Harmless.Deployment.host deployment bad_server) ~pages:[ "/" ];
  let results = ref [] in
  let record who target when_ got =
    results := { who; target; when_; got_response = got } :: !results
  in
  (* Phase 1: initial policy. *)
  record "user0" good_host "initial policy"
    (fetch_and_wait engine deployment ~user:user0 ~server:good_server
       ~host:good_host ~port:30001);
  record "user0" bad_host "initial policy"
    (fetch_and_wait engine deployment ~user:user0 ~server:bad_server
       ~host:bad_host ~port:30002);
  record "user1" bad_host "initial policy"
    (fetch_and_wait engine deployment ~user:user1 ~server:bad_server
       ~host:bad_host ~port:30003);
  (* Phase 2: block user1 from badsite on-the-fly. *)
  Sdnctl.Parental_control.block pc ctrl
    ~user:(Harmless.Deployment.host_ip user1)
    ~host:bad_host;
  Common.run_for engine (Sim_time.ms 5);
  record "user1" bad_host "after live block"
    (fetch_and_wait engine deployment ~user:user1 ~server:bad_server
       ~host:bad_host ~port:30004);
  (* Phase 3: unblock user0 on-the-fly. *)
  Sdnctl.Parental_control.unblock pc ctrl
    ~user:(Harmless.Deployment.host_ip user0)
    ~host:bad_host;
  Common.run_for engine (Sim_time.ms 5);
  record "user0" bad_host "after live unblock"
    (fetch_and_wait engine deployment ~user:user0 ~server:bad_server
       ~host:bad_host ~port:30005);
  List.rev !results

let expected =
  [ true; false; true; false; true ]
  (* good allowed; bad blocked; user1 ok; user1 blocked; user0 unblocked *)

let run () =
  let results = measure () in
  Tables.print ~title:"E8: Parental Control (live block/unblock)"
    ~header:[ "user"; "site"; "phase"; "response"; "expected"; "verdict" ]
    (List.map2
       (fun r want ->
         [
           r.who;
           r.target;
           r.when_;
           (if r.got_response then "200 OK" else "blocked");
           (if want then "200 OK" else "blocked");
           (if r.got_response = want then "ok" else "WRONG");
         ])
       results expected);
  let pass = List.for_all2 (fun r want -> r.got_response = want) results expected in
  Printf.printf "\nE8 verdict: %s\n" (if pass then "all policies enforced" else "FAILED");
  results
