open Openflow

let trunk_port = 0
let patch_port_of_logical i = 1 + i

let program ~trunk_port ~patch_base map =
  List.concat_map
    (fun i ->
      let v =
        match Port_map.vid_of_logical map i with
        | Some v -> v
        | None -> assert false
      in
      let from_trunk =
        Of_message.add_flow ~priority:2000
          ~match_:Of_match.(any |> in_port trunk_port |> vid v)
          [
            Flow_entry.Apply_actions
              [ Of_action.Pop_vlan; Of_action.output (patch_base + i) ];
          ]
      in
      let to_trunk =
        Of_message.add_flow ~priority:2000
          ~match_:Of_match.(any |> in_port (patch_base + i))
          [
            Flow_entry.Apply_actions
              [
                Of_action.Push_vlan;
                Of_action.Set_vlan_vid v;
                Of_action.output trunk_port;
              ];
          ]
      in
      [ from_trunk; to_trunk ])
    (List.init (Port_map.size map) Fun.id)

let rules map = program ~trunk_port ~patch_base:1 map

let install ?(trunk_port = trunk_port) ss1 map =
  (* The patch ports are SS_1's last [size map] ports. *)
  let patch_base =
    Simnet.Node.port_count (Softswitch.Soft_switch.node ss1) - Port_map.size map
  in
  let rules = program ~trunk_port ~patch_base map in
  (* Control-path event: account installed translation rules in the
     process-wide registry so a metrics snapshot shows how much state
     the transparency trick costs. *)
  Telemetry.Registry.Counter.inc ~by:(List.length rules)
    (Telemetry.Registry.Counter.v
       ~help:"SS_1 VLAN<->patch translation rules installed"
       ~labels:[ ("switch", Softswitch.Soft_switch.name ss1) ]
       "harmless_translator_rules_installed_total");
  List.iter
    (fun fm -> Softswitch.Soft_switch.handle_message ss1 (Of_message.Flow_mod fm))
    rules

let reinstall ?trunk_port ss1 map =
  Softswitch.Soft_switch.handle_message ss1
    (Of_message.Flow_mod (Of_message.delete_flow Of_match.any));
  install ?trunk_port ss1 map
