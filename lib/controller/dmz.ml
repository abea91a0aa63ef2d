open Netpkt

type vm = { vm_ip : Ipv4_addr.t; vm_mac : Mac_addr.t; vm_port : int }

type policy = {
  vms : vm list;
  allowed : (Ipv4_addr.t * Ipv4_addr.t) list;
}

let allows policy a b =
  List.exists
    (fun (x, y) ->
      (Ipv4_addr.equal x a && Ipv4_addr.equal y b)
      || (Ipv4_addr.equal x b && Ipv4_addr.equal y a))
    policy.allowed

let vm_for policy ip =
  match List.find_opt (fun vm -> Ipv4_addr.equal vm.vm_ip ip) policy.vms with
  | Some vm -> vm
  | None ->
      invalid_arg
        (Printf.sprintf "Dmz: allowed pair names unknown VM %s"
           (Ipv4_addr.to_string ip))

let fragment policy ?in_ports () =
  let open Policy.Syntax in
  let scope =
    match in_ports with
    | None -> True
    | Some ports -> disj (List.map in_port ports)
  in
  let pair src dst =
    seq
      (filter
         (conj
            [
              scope;
              eth_type_is 0x0800;
              ip_src_is src.vm_ip;
              ip_dst_is dst.vm_ip;
            ]))
      (fwd dst.vm_port)
  in
  unions
    (List.concat_map
       (fun (a, b) ->
         let va = vm_for policy a and vb = vm_for policy b in
         [ pair va vb; pair vb va ])
       policy.allowed
    (* The default-deny fence needs no fragment: in the policy algebra an
       unmatched packet already yields the empty output set. *)
    @ [ seq (filter (conj [ scope; eth_type_is 0x0806 ])) flood ])

let create policy =
  Controller.policy_app "dmz" (Policy.Compile.compile (fragment policy ()))
