open Netpkt

type backend = {
  backend_mac : Mac_addr.t;
  backend_ip : Ipv4_addr.t;
  backend_port : int;
}

let fragment ~vip_ip ~vip_mac ~ingress_port ~backends ?vip_in_ports () =
  if backends = [] then invalid_arg "Load_balancer: no backends";
  let open Policy.Syntax in
  let scope =
    match vip_in_ports with
    | None -> True
    | Some ports -> disj (List.map in_port ports)
  in
  let vip_branch =
    seq
      (filter (conj [ scope; eth_type_is 0x0800; ip_dst_is vip_ip ]))
      (balance
         (List.map
            (fun b ->
              [
                (Eth_dst, Mac b.backend_mac);
                (Ip_dst, Ip b.backend_ip);
                (Loc, At (Phys b.backend_port));
              ])
            backends))
  in
  let return_branch =
    unions
      (List.map
         (fun b ->
           seq
             (filter
                (conj
                   [
                     in_port b.backend_port;
                     eth_type_is 0x0800;
                     ip_src_is b.backend_ip;
                   ]))
             (seqs
                [ set_eth_src vip_mac; set_ip_src vip_ip; fwd ingress_port ]))
         backends)
  in
  (* ARP floods on the app's own ports (where VIP traffic enters, plus
     the backends) for VIP and backend resolution. *)
  let arp_branch =
    let ingress = Option.value vip_in_ports ~default:[ ingress_port ] in
    let backend_ports =
      List.filter
        (fun p -> not (List.mem p ingress))
        (List.map (fun b -> b.backend_port) backends)
    in
    seq
      (filter
         (conj
            [
              disj (List.map in_port (ingress @ backend_ports));
              eth_type_is 0x0806;
            ]))
      flood
  in
  (* On the (spoofed-source) overlap of the VIP and return branches the
     VIP branch wins, hence [orelse].  ARP is disjoint by ethertype, so it
     joins by union. *)
  union (orelse vip_branch return_branch) arp_branch

let create ~vip_ip ~vip_mac ~ingress_port ~backends =
  Controller.policy_app "load-balancer"
    (Policy.Compile.compile
       (fragment ~vip_ip ~vip_mac ~ingress_port ~backends ()))
