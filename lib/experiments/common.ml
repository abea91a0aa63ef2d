open Simnet
open Openflow

let proactive_l2 ~num_hosts =
  let switch_up ctrl dpid =
    for i = 0 to num_hosts - 1 do
      Sdnctl.Controller.install ctrl dpid
        (Of_message.add_flow ~priority:1000
           ~match_:Of_match.(any |> eth_dst (Harmless.Deployment.host_mac i))
           [ Flow_entry.Apply_actions [ Of_action.output i ] ])
    done;
    Sdnctl.Controller.install ctrl dpid
      (Of_message.add_flow ~priority:900
         ~match_:Of_match.(any |> eth_type 0x0806)
         [ Flow_entry.Apply_actions [ Of_action.Output Of_action.Flood ] ])
  in
  { (Sdnctl.Controller.no_op_app "proactive-l2") with Sdnctl.Controller.switch_up }

let warm_legacy deployment =
  let engine = deployment.Harmless.Deployment.engine in
  Array.iteri
    (fun i h ->
      Host.send h
        (Netpkt.Packet.arp_request ~src_mac:(Host.mac h) ~src_ip:(Host.ip h)
           ~target_ip:(Harmless.Deployment.host_ip ((i + 1) mod
                                                    Array.length deployment.Harmless.Deployment.hosts))))
    deployment.Harmless.Deployment.hosts;
  Engine.run engine ~until:(Sim_time.add (Engine.now engine) (Sim_time.ms 2))

let built = function Ok x -> x | Error msg -> failwith msg

let run_for engine span =
  Engine.run engine ~until:(Sim_time.add (Engine.now engine) span)

let attach_with_apps deployment apps =
  let engine = deployment.Harmless.Deployment.engine in
  let ctrl = Sdnctl.Controller.create engine () in
  List.iter (Sdnctl.Controller.add_app ctrl) apps;
  ignore
    (Sdnctl.Controller.attach_switch ctrl
       (Harmless.Deployment.controller_switch deployment));
  run_for engine (Sim_time.ms 5);
  ctrl

let total_udp_received deployment =
  Array.fold_left
    (fun acc h -> acc + Host.udp_received h)
    0 deployment.Harmless.Deployment.hosts
