(* E7 — use case (b), DMZ access policies: six "VMs" behind HARMLESS
   ports, an allow-list of pairs, everything else fenced off.  We probe
   every ordered pair with UDP and print the delivery matrix next to the
   policy's ground truth — they must agree exactly (zero violations,
   zero false blocks). *)

open Simnet
open Netpkt

let num_hosts = 6

let allowed_pairs =
  [ (0, 1); (2, 3); (0, 4) ] (* e.g. web<->app, app<->db, web<->cache *)

type result = {
  matrix : (int * int * bool * bool) list;
      (* src, dst, delivered, allowed-by-policy *)
  violations : int;  (* delivered but not allowed *)
  false_blocks : int;  (* allowed but not delivered *)
}

let measure () =
  let engine = Engine.create () in
  let deployment =
    Common.built (Harmless.Deployment.build_harmless engine ~num_hosts ())
  in
  let policy =
    {
      Sdnctl.Dmz.vms =
        List.init num_hosts (fun i ->
            {
              Sdnctl.Dmz.vm_ip = Harmless.Deployment.host_ip i;
              vm_mac = Harmless.Deployment.host_mac i;
              vm_port = i;
            });
      allowed =
        List.map
          (fun (a, b) ->
            (Harmless.Deployment.host_ip a, Harmless.Deployment.host_ip b))
          allowed_pairs;
    }
  in
  ignore
    (Common.attach_with_apps deployment [ Sdnctl.Dmz.create policy ]);
  (* Probe every ordered pair with a distinctive UDP port, and note the
     ports each host receives. *)
  let probe_port src dst = 20000 + (src * 100) + dst in
  let seen = Hashtbl.create 64 in
  for dst = 0 to num_hosts - 1 do
    Host.on_receive (Harmless.Deployment.host deployment dst)
      (fun (p : Packet.t) ->
        match p.Packet.l3 with
        | Packet.Ip { Ipv4.payload = Ipv4.Udp dgram; _ } ->
            Hashtbl.replace seen (dst, dgram.Udp.dst_port) ()
        | _ -> ())
  done;
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          if src <> dst then
            let h = Harmless.Deployment.host deployment src in
            Host.send h
              (Packet.udp
                 ~dst:(Harmless.Deployment.host_mac dst)
                 ~src:(Host.mac h) ~ip_src:(Host.ip h)
                 ~ip_dst:(Harmless.Deployment.host_ip dst)
                 ~src_port:(probe_port src dst)
                 ~dst_port:(probe_port src dst)
                 "dmz-probe"))
        (List.init num_hosts Fun.id))
    (List.init num_hosts Fun.id);
  Common.run_for engine (Sim_time.ms 50);
  let delivered src dst = Hashtbl.mem seen (dst, probe_port src dst) in
  let matrix = ref [] and violations = ref 0 and false_blocks = ref 0 in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          if src <> dst then begin
            let got = delivered src dst in
            let ok =
              Sdnctl.Dmz.allows policy
                (Harmless.Deployment.host_ip src)
                (Harmless.Deployment.host_ip dst)
            in
            if got && not ok then incr violations;
            if ok && not got then incr false_blocks;
            matrix := (src, dst, got, ok) :: !matrix
          end)
        (List.init num_hosts Fun.id))
    (List.init num_hosts Fun.id);
  {
    matrix = List.rev !matrix;
    violations = !violations;
    false_blocks = !false_blocks;
  }

let run () =
  let r = measure () in
  Tables.print ~title:"E7: DMZ policy enforcement matrix (UDP probes)"
    ~header:[ "src"; "dst"; "policy"; "delivered"; "verdict" ]
    (List.map
       (fun (src, dst, got, ok) ->
         [
           Printf.sprintf "vm%d" src;
           Printf.sprintf "vm%d" dst;
           (if ok then "allow" else "deny");
           (if got then "yes" else "no");
           (if got = ok then "ok" else "WRONG");
         ])
       r.matrix);
  Printf.printf "\nviolations: %d, false blocks: %d\n" r.violations r.false_blocks;
  r
