(* E6 — use case (a), the in-network Load Balancer: a client behind one
   HARMLESS port fires HTTP requests at a virtual IP; the select group
   spreads flows over backends by source-port hash.  We report the
   per-backend request counts, the balance ratio, and whether every
   request got an HTTP 200 back through the un-rewrite path. *)

open Simnet
open Netpkt

let num_hosts = 6
let backends = [ 0; 1; 2; 3 ]
let client = 5
let vip_ip = Ipv4_addr.of_octets 10 0 0 100
let vip_mac = Mac_addr.make_local 100
let requests = 400

type result = {
  per_backend : (int * int) list; (* host index, requests served *)
  responses_ok : int;
  balance_ratio : float; (* max/min over backends; 1.0 = perfect *)
}

let measure () =
  let engine = Engine.create () in
  let deployment =
    Common.built (Harmless.Deployment.build_harmless engine ~num_hosts ())
  in
  let lb_app =
    Sdnctl.Load_balancer.create ~vip_ip ~vip_mac ~ingress_port:client
      ~backends:
        (List.map
           (fun b ->
             {
               Sdnctl.Load_balancer.backend_mac = Harmless.Deployment.host_mac b;
               backend_ip = Harmless.Deployment.host_ip b;
               backend_port = b;
             })
           backends)
  in
  (* The compiled table is total: no packet misses it, so no L2 app
     rides along. *)
  ignore (Common.attach_with_apps deployment [ lb_app ]);
  (* Requests served per backend: TCP segments to port 80 it received. *)
  let served =
    List.map
      (fun b ->
        let h = Harmless.Deployment.host deployment b in
        let n = ref 0 in
        Host.serve_http h ~pages:[ "/" ];
        Host.on_receive h (fun (p : Packet.t) ->
            match p.Packet.l3 with
            | Packet.Ip { Ipv4.payload = Ipv4.Tcp seg; _ } when seg.Tcp.dst_port = 80 ->
                incr n
            | _ -> ());
        (b, n))
      backends
  in
  let c = Harmless.Deployment.host deployment client in
  let rng = Rng.create 99 in
  for i = 0 to requests - 1 do
    let src_port = 1024 + Rng.int rng 60000 in
    Engine.schedule_after engine (Sim_time.us (i * 50)) (fun () ->
        Host.http_get c ~server_mac:vip_mac ~server_ip:vip_ip
          ~host:"www.example.com" ~path:"/" ~src_port)
  done;
  Common.run_for engine (Sim_time.ms 100);
  let per_backend = List.map (fun (b, n) -> (b, !n)) served in
  let counts = List.map snd per_backend in
  let mx = List.fold_left Stdlib.max 0 counts
  and mn = List.fold_left Stdlib.min max_int counts in
  {
    per_backend;
    responses_ok = Host.http_status_count c ~status:200;
    balance_ratio = (if mn = 0 then infinity else float_of_int mx /. float_of_int mn);
  }

let run () =
  let r = measure () in
  Tables.print ~title:"E6: Load Balancer use case (400 flows over 4 backends)"
    ~header:[ "backend"; "requests served" ]
    (List.map
       (fun (b, n) -> [ Printf.sprintf "backend %d" b; string_of_int n ])
       r.per_backend);
  Printf.printf "\nHTTP 200 responses back at the client: %d / %d\n"
    r.responses_ok requests;
  Printf.printf "Balance (max/min): %.2f\n" r.balance_ratio;
  r
