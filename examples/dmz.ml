(* Use case (b) of the paper: VM-level access policies (a DMZ) enforced
   in a migrated legacy switch.

     dune exec examples/dmz.exe

   Six "VMs": a web tier (0, 1), an app server (2) and a database (3),
   plus two tenants' stray VMs (4, 5).  Policy: web <-> app, app <-> db.
   Everything else — including web -> db directly — is fenced off. *)

open Simnet
open Netpkt

let () =
  let engine = Engine.create () in
  let deployment =
    match Harmless.Deployment.build_harmless engine ~num_hosts:6 () with
    | Ok d -> d
    | Error msg -> failwith msg
  in
  let ip = Harmless.Deployment.host_ip in
  let policy =
    {
      Sdnctl.Dmz.vms =
        List.init 6 (fun i ->
            {
              Sdnctl.Dmz.vm_ip = ip i;
              vm_mac = Harmless.Deployment.host_mac i;
              vm_port = i;
            });
      allowed = [ (ip 0, ip 2); (ip 1, ip 2); (ip 2, ip 3) ];
    }
  in
  let ctrl = Sdnctl.Controller.create engine () in
  Sdnctl.Controller.add_app ctrl (Sdnctl.Dmz.create policy);
  ignore
    (Sdnctl.Controller.attach_switch ctrl
       (Harmless.Deployment.controller_switch deployment));
  Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 5));

  let attempt src dst =
    let h = Harmless.Deployment.host deployment src in
    Host.send h
      (Packet.udp
         ~dst:(Harmless.Deployment.host_mac dst)
         ~src:(Host.mac h) ~ip_src:(Host.ip h) ~ip_dst:(ip dst)
         ~src_port:(40000 + (src * 10) + dst)
         ~dst_port:(40000 + (src * 10) + dst)
         "dmz probe")
  in
  let pairs = [ (0, 2); (2, 0); (2, 3); (0, 3); (4, 2); (5, 0); (1, 2) ] in
  (* Remember which UDP destination ports reached which VM. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun d ->
      Host.on_receive (Harmless.Deployment.host deployment d) (fun (p : Packet.t) ->
          match p.Packet.l3 with
          | Packet.Ip { Ipv4.payload = Ipv4.Udp u; _ } ->
              Hashtbl.replace seen (d, u.Udp.dst_port) ()
          | _ -> ()))
    (List.sort_uniq compare (List.map snd pairs));
  List.iter (fun (s, d) -> attempt s d) pairs;
  Engine.run engine ~until:(Sim_time.of_ns (Sim_time.ms 50));

  List.iter
    (fun (s, d) ->
      let got = Hashtbl.mem seen (d, 40000 + (s * 10) + d) in
      let want = Sdnctl.Dmz.allows policy (ip s) (ip d) in
      Printf.printf "vm%d -> vm%d : %-9s (policy says %s)%s\n" s d
        (if got then "delivered" else "blocked")
        (if want then "allow" else "deny")
        (if got = want then "" else "  <-- WRONG");
      if got <> want then exit 1)
    pairs;
  print_endline "dmz OK: enforcement matches policy exactly"
