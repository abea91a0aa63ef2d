open Netpkt

type subscriber = {
  sub_ip : Ipv4_addr.t;
  sub_mac : Mac_addr.t;
  sub_port : int;
}

type t = {
  subscribers : subscriber list;
  dmz : Dmz.policy;
  dmz_ports : int list;
  vip_ip : Ipv4_addr.t;
  vip_mac : Mac_addr.t;
  lb_ingress : int;
  lb_backends : Load_balancer.backend list;
  parental : Parental_control.t;
  limits : Rate_limiter.limit list;
  num_ports : int;
}

let ip = Ipv4_addr.of_string
let mac = Mac_addr.make_local

let default () =
  let subscribers =
    List.init 4 (fun i ->
        {
          sub_ip = ip (Printf.sprintf "10.1.0.%d" (i + 1));
          sub_mac = mac (0x101 + i);
          sub_port = i;
        })
  in
  let vm1 = { Dmz.vm_ip = ip "10.2.0.1"; vm_mac = mac 0x201; vm_port = 4 } in
  let vm2 = { Dmz.vm_ip = ip "10.2.0.2"; vm_mac = mac 0x202; vm_port = 5 } in
  let vm3 = { Dmz.vm_ip = ip "10.2.0.3"; vm_mac = mac 0x203; vm_port = 6 } in
  let backends =
    [
      {
        Load_balancer.backend_ip = ip "10.3.1.1";
        backend_mac = mac 0x311;
        backend_port = 8;
      };
      {
        Load_balancer.backend_ip = ip "10.3.1.2";
        backend_mac = mac 0x312;
        backend_port = 9;
      };
    ]
  in
  let parental =
    Parental_control.create
      ~sites:
        [
          ("blocked.example", ip "203.0.113.5");
          ("other.example", ip "203.0.113.7");
        ]
      ~blocked:
        [ (ip "10.1.0.1", "blocked.example"); (ip "10.1.0.2", "nosuch.example") ]
      ()
  in
  {
    subscribers;
    dmz =
      {
        Dmz.vms = [ vm1; vm2; vm3 ];
        (* vm3 is in the zone but party to no allowed pair: it exercises
           the default-deny fence. *)
        allowed = [ (vm1.Dmz.vm_ip, vm2.Dmz.vm_ip) ];
      };
    dmz_ports = [ 4; 5; 6 ];
    vip_ip = ip "10.3.0.10";
    vip_mac = mac 0x310;
    lb_ingress = 7;
    lb_backends = backends;
    parental;
    limits =
      [
        { Rate_limiter.subject = ip "10.1.0.1"; rate_kbps = 512; burst_kb = 16 };
      ];
    num_ports = 10;
  }

let l2_fragment t =
  let open Policy.Syntax in
  orelse
    (seq (filter (eth_type_is 0x0806)) flood)
    (unions
       (List.map
          (fun s -> seq (filter (eth_dst_is s.sub_mac)) (fwd s.sub_port))
          t.subscribers))

let policy t =
  let open Policy.Syntax in
  (* The forwarding bands chain by fallback, first match wins: the
     parental sniff, then the DMZ and load-balancer slices (disjoint by
     ingress scope, so they join by union; their per-port ARP floods agree
     with the broadcast-domain flood below), then subscriber L2 with ARP
     flooding first.  The parental drops shadow everything, so they guard
     the whole chain; the DMZ's default deny is plain absence. *)
  let sniff_ctrl =
    seq (filter (Parental_control.sniff_pred t.parental)) (to_controller ())
  in
  let forwarding =
    orelses
      [
        sniff_ctrl;
        union
          (Dmz.fragment t.dmz ~in_ports:t.dmz_ports ())
          (Load_balancer.fragment ~vip_ip:t.vip_ip ~vip_mac:t.vip_mac
             ~ingress_port:t.lb_ingress ~backends:t.lb_backends
             ~vip_in_ports:[ t.lb_ingress ] ());
        l2_fragment t;
      ]
  in
  let unblocked =
    seq (filter (neg (Parental_control.blocked_pred t.parental))) forwarding
  in
  Rate_limiter.policy ~limits:t.limits unblocked

(* Value pools for the equivalence fuzzer: every address the scenario
   knows plus a stranger of each kind, so collisions are the common case. *)

let macs t =
  List.map (fun s -> s.sub_mac) t.subscribers
  @ List.map (fun (vm : Dmz.vm) -> vm.Dmz.vm_mac) t.dmz.Dmz.vms
  @ (t.vip_mac
    :: List.map
         (fun (b : Load_balancer.backend) -> b.Load_balancer.backend_mac)
         t.lb_backends)
  @ [ Mac_addr.broadcast; mac 0x999 ]

let ips t =
  List.map (fun s -> s.sub_ip) t.subscribers
  @ List.map (fun (vm : Dmz.vm) -> vm.Dmz.vm_ip) t.dmz.Dmz.vms
  @ (t.vip_ip
    :: List.map
         (fun (b : Load_balancer.backend) -> b.Load_balancer.backend_ip)
         t.lb_backends)
  (* The parental sites, plus a stranger. *)
  @ [ ip "203.0.113.5"; ip "203.0.113.7"; ip "192.0.2.99" ]

let l4_ports _t = [ 80; 53; 443; 8080 ]
