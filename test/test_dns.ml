open Simnet
open Netpkt

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let prop name ?(count = 200) gen ~print f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen f)

(* ---- codec ---- *)

let name_gen =
  let open QCheck2.Gen in
  let label =
    map
      (fun chars -> String.init (List.length chars) (List.nth chars))
      (list_size (int_range 1 10) (char_range 'a' 'z'))
  in
  map (String.concat ".") (list_size (int_range 1 4) label)

let message_gen =
  let open QCheck2.Gen in
  oneof
    [
      map2 (fun id name -> Dns_lite.query ~id name) (int_bound 0xffff) name_gen;
      map3
        (fun id name addr ->
          Dns_lite.respond (Dns_lite.query ~id name) ~addrs:[ (name, addr) ])
        (int_bound 0xffff) name_gen Gen.ip_gen;
      map2
        (fun id name -> Dns_lite.respond (Dns_lite.query ~id name) ~addrs:[])
        (int_bound 0xffff) name_gen;
    ]

let codec_tests =
  [
    prop "dns messages round-trip" message_gen
      ~print:(fun m -> Format.asprintf "%a" Dns_lite.pp m)
      (fun m -> Dns_lite.equal m (Dns_lite.decode (Dns_lite.encode m)));
    tc "respond finds records case-insensitively" (fun () ->
        let q = Dns_lite.query ~id:7 "WWW.Example.COM" in
        let r =
          Dns_lite.respond q ~addrs:[ ("www.example.com", Ipv4_addr.of_string "1.2.3.4") ]
        in
        check Alcotest.int "noerror" 0 r.Dns_lite.rcode;
        check Alcotest.int "one answer" 1 (List.length r.Dns_lite.answers));
    tc "unknown name gives nxdomain" (fun () ->
        let r = Dns_lite.respond (Dns_lite.query ~id:1 "nope.example") ~addrs:[] in
        check Alcotest.int "rcode 3" 3 r.Dns_lite.rcode;
        check Alcotest.bool "is response" true r.Dns_lite.response);
    tc "bad names rejected" (fun () ->
        check Alcotest.bool "empty" false (Dns_lite.valid_name "");
        check Alcotest.bool "empty label" false (Dns_lite.valid_name "a..b");
        check Alcotest.bool "long label" false
          (Dns_lite.valid_name (String.make 64 'x'));
        check Alcotest.bool "ok" true (Dns_lite.valid_name "www.example.com"));
    tc "malformed bytes rejected" (fun () ->
        check Alcotest.bool "raises" true
          (try ignore (Dns_lite.decode "\x00\x01"); false
           with Wire.Truncated _ | Wire.Malformed _ -> true));
  ]

(* ---- host services ---- *)

let host_pair () =
  let engine = Engine.create () in
  let client =
    Host.create engine ~name:"client" ~mac:(Mac_addr.make_local 1)
      ~ip:(Ipv4_addr.of_string "10.0.0.1") ()
  in
  let server =
    Host.create engine ~name:"dns" ~mac:(Mac_addr.make_local 2)
      ~ip:(Ipv4_addr.of_string "10.0.0.2") ()
  in
  ignore (Link.connect (Host.node client, 0) (Host.node server, 0));
  (engine, client, server)

let host_tests =
  [
    tc "resolve against a host dns server" (fun () ->
        let engine, client, server = host_pair () in
        Host.serve_dns server
          ~records:[ ("www.site.example", Ipv4_addr.of_string "10.0.0.50") ];
        Host.resolve client ~server_mac:(Host.mac server) ~server_ip:(Host.ip server)
          "www.site.example";
        Engine.run engine;
        check
          Alcotest.(list (pair string string))
          "resolved"
          [ ("www.site.example", "10.0.0.50") ]
          (List.map
             (fun (n, a) -> (n, Ipv4_addr.to_string a))
             (Host.resolved client)));
    tc "nxdomain counted" (fun () ->
        let engine, client, server = host_pair () in
        Host.serve_dns server ~records:[];
        Host.resolve client ~server_mac:(Host.mac server) ~server_ip:(Host.ip server)
          "ghost.example";
        Engine.run engine;
        check Alcotest.int "nx" 1 (Host.nxdomains client);
        check Alcotest.int "nothing resolved" 0 (List.length (Host.resolved client)));
    tc "non-server host ignores queries" (fun () ->
        let engine, client, server = host_pair () in
        (* server not serving dns *)
        Host.resolve client ~server_mac:(Host.mac server) ~server_ip:(Host.ip server)
          "www.site.example";
        Engine.run engine;
        check Alcotest.int "no answer" 0 (List.length (Host.resolved client)));
  ]

(* ---- dns_guard on a HARMLESS deployment ---- *)

let guard_tests =
  [
    tc "resolution of a blocked name pins the drop before first contact"
      (fun () ->
        (* hosts: 0 = kid, 1 = free user, 2 = dns server, 3 = web server *)
        let engine = Engine.create () in
        let d =
          match Harmless.Deployment.build_harmless engine ~num_hosts:4 () with
          | Ok d -> d
          | Error m -> failwith m
        in
        let guard =
          Sdnctl.Dns_guard.create
            ~blocked:[ (Harmless.Deployment.host_ip 0, "forbidden.example") ]
            ()
        in
        ignore
          (Experiments_lib.Common.attach_with_apps d
             [ Sdnctl.Dns_guard.app guard; Sdnctl.Rate_limiter.table1_l2 ~num_hosts:4 ]);
        let dns = Harmless.Deployment.host d 2 in
        Host.serve_dns dns
          ~records:[ ("forbidden.example", Harmless.Deployment.host_ip 3) ];
        Host.serve_http (Harmless.Deployment.host d 3) ~pages:[ "/" ];
        (* Both users resolve the name. *)
        let resolve u =
          Host.resolve
            (Harmless.Deployment.host d u)
            ~server_mac:(Harmless.Deployment.host_mac 2)
            ~server_ip:(Harmless.Deployment.host_ip 2)
            "forbidden.example"
        in
        resolve 0;
        resolve 1;
        Experiments_lib.Common.run_for engine (Sim_time.ms 30);
        check Alcotest.int "both got answers" 1
          (List.length (Host.resolved (Harmless.Deployment.host d 0)));
        check Alcotest.bool "binding snooped" true
          (List.mem_assoc "forbidden.example" (Sdnctl.Dns_guard.bindings guard));
        check Alcotest.int "one drop pinned" 1
          (Sdnctl.Dns_guard.blocks_installed guard);
        (* Now both try to fetch the page. *)
        let fetch u port =
          Host.http_get
            (Harmless.Deployment.host d u)
            ~server_mac:(Harmless.Deployment.host_mac 3)
            ~server_ip:(Harmless.Deployment.host_ip 3)
            ~host:"forbidden.example" ~path:"/" ~src_port:port
        in
        fetch 0 40000;
        fetch 1 40001;
        Experiments_lib.Common.run_for engine (Sim_time.ms 30);
        check Alcotest.int "kid blocked" 0
          (Host.http_responses (Harmless.Deployment.host d 0));
        check Alcotest.int "free user served" 1
          (Host.http_responses (Harmless.Deployment.host d 1)));
    tc "unrelated resolutions install nothing" (fun () ->
        let engine = Engine.create () in
        let d =
          match Harmless.Deployment.build_harmless engine ~num_hosts:3 () with
          | Ok d -> d
          | Error m -> failwith m
        in
        let guard =
          Sdnctl.Dns_guard.create
            ~blocked:[ (Harmless.Deployment.host_ip 0, "forbidden.example") ]
            ()
        in
        ignore
          (Experiments_lib.Common.attach_with_apps d
             [ Sdnctl.Dns_guard.app guard; Sdnctl.Rate_limiter.table1_l2 ~num_hosts:3 ]);
        let dns = Harmless.Deployment.host d 2 in
        Host.serve_dns dns
          ~records:[ ("harmless.example", Harmless.Deployment.host_ip 1) ];
        Host.resolve
          (Harmless.Deployment.host d 0)
          ~server_mac:(Harmless.Deployment.host_mac 2)
          ~server_ip:(Harmless.Deployment.host_ip 2)
          "harmless.example";
        Experiments_lib.Common.run_for engine (Sim_time.ms 30);
        check Alcotest.bool "binding seen" true
          (Sdnctl.Dns_guard.bindings guard <> []);
        check Alcotest.int "no blocks" 0 (Sdnctl.Dns_guard.blocks_installed guard));
  ]

let suite =
  [
    ("dns.codec", codec_tests);
    ("dns.host", host_tests);
    ("dns.guard", guard_tests);
  ]
