(* E9 — data-plane transparency: identical controller programs and
   workloads on a plain OpenFlow switch and on the HARMLESS composite
   must deliver byte-identical frame sets to every host. *)

open Simnet
open Netpkt

let udp_burst deployment =
  let engine = deployment.Harmless.Deployment.engine in
  let n = Harmless.Deployment.num_hosts deployment in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        let h = Harmless.Deployment.host deployment i in
        Engine.schedule_after engine (Sim_time.us ((i * 37) + (j * 11))) (fun () ->
            Host.send h
              (Packet.udp
                 ~dst:(Harmless.Deployment.host_mac j)
                 ~src:(Host.mac h) ~ip_src:(Host.ip h)
                 ~ip_dst:(Harmless.Deployment.host_ip j)
                 ~src_port:(1000 + i) ~dst_port:(2000 + j)
                 (Printf.sprintf "payload-%d-%d" i j)))
    done
  done

let pings deployment =
  let n = Harmless.Deployment.num_hosts deployment in
  for i = 0 to n - 1 do
    let j = (i + 1) mod n in
    Host.ping
      (Harmless.Deployment.host deployment i)
      ~dst_mac:(Harmless.Deployment.host_mac j)
      ~dst_ip:(Harmless.Deployment.host_ip j)
      ~seq:i
  done

let scenarios =
  [
    ( "reactive L2 + all-pairs UDP",
      {
        Harmless.Transparency.num_hosts = 4;
        apps = (fun () -> [ Sdnctl.L2_learning.create () ]);
        traffic = udp_burst;
        warmup = Sim_time.ms 5;
        duration = Sim_time.ms 60;
      } );
    ( "proactive L2 + ping ring",
      {
        Harmless.Transparency.num_hosts = 5;
        apps = (fun () -> [ Common.proactive_l2 ~num_hosts:5 ]);
        traffic = pings;
        warmup = Sim_time.ms 5;
        duration = Sim_time.ms 60;
      } );
    ( "DMZ policy + all-pairs UDP",
      {
        Harmless.Transparency.num_hosts = 4;
        apps =
          (fun () ->
            [
              Sdnctl.Dmz.create
                {
                  Sdnctl.Dmz.vms =
                    List.init 4 (fun i ->
                        {
                          Sdnctl.Dmz.vm_ip = Harmless.Deployment.host_ip i;
                          vm_mac = Harmless.Deployment.host_mac i;
                          vm_port = i;
                        });
                  allowed =
                    [
                      (Harmless.Deployment.host_ip 0, Harmless.Deployment.host_ip 1);
                      (Harmless.Deployment.host_ip 2, Harmless.Deployment.host_ip 3);
                    ];
                };
            ]);
        traffic = udp_burst;
        warmup = Sim_time.ms 5;
        duration = Sim_time.ms 60;
      } );
  ]

let rows () =
  List.map
    (fun (name, scenario) ->
      (name, Common.built (Harmless.Transparency.run scenario)))
    scenarios

let run () =
  let rows = rows () in
  Tables.print
    ~title:"E9: data-plane transparency (plain OF vs HARMLESS, same program)"
    ~header:[ "scenario"; "plain frames"; "harmless frames"; "equivalent" ]
    (List.map
       (fun (name, (v : Harmless.Transparency.verdict)) ->
         [
           name;
           string_of_int v.Harmless.Transparency.plain_delivered;
           string_of_int v.Harmless.Transparency.harmless_delivered;
           (if v.Harmless.Transparency.equivalent then "yes" else "NO");
         ])
       rows);
  List.iter
    (fun (name, (v : Harmless.Transparency.verdict)) ->
      List.iter
        (fun m -> Printf.printf "  [%s] %s\n" name m)
        v.Harmless.Transparency.mismatches)
    rows;
  rows
