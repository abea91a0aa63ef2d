open Ethswitch
open Simnet

type vendor = Cisco_like | Arista_like | Juniper_like

type t = {
  switch : Legacy_switch.t;
  vendor : vendor;
  model : string;
  os_version : string;
  serial : string;
  snmp : Snmp.t;
  mutable candidate : Device_config.t option;
  mutable last_committed : Device_config.t option;
  mutable fault : Fault_plan.t option;
}

let switch t = t.switch
let hostname t = Legacy_switch.name t.switch
let vendor t = t.vendor
let snmp t = t.snmp

let set_fault_plan t plan =
  t.fault <- plan;
  (* One plan covers the whole management surface: SNMP datagrams and
     NAPALM session operations draw from the same failure sequence. *)
  Snmp.set_fault_plan t.snmp plan

let napalm_faulted t ~op =
  match t.fault with
  | Some plan when Fault_plan.should_fail plan ->
      Some (Error (Printf.sprintf "%s: connection timed out" op))
  | Some _ | None -> None

let dialect t : (module Dialect.S) =
  match t.vendor with
  | Cisco_like -> (module Dialect.Ios)
  | Arista_like -> (module Dialect.Eos)
  | Juniper_like -> (module Dialect.Junos)

let vendor_string = function
  | Cisco_like -> "CiscoLike"
  | Arista_like -> "AristaLike"
  | Juniper_like -> "JuniperLike"

let running_config t = Device_config.of_switch ~hostname:(hostname t) t.switch

let running_config_text t =
  let (module D) = dialect t in
  D.render (running_config t)

let engine t = Node.engine (Legacy_switch.node t.switch)

let uptime_s t = Sim_time.to_ns (Engine.now (engine t)) / 1_000_000_000

(* ---- SNMP agent wiring ---- *)

let register_mib t mib =
  let sw = t.switch in
  let ports = Legacy_switch.port_count sw in
  let (module D) = dialect t in
  Mib.register_scalar mib Oid.Std.sys_descr
    ~get:(fun () ->
      Mib.Str
        (Printf.sprintf "%s %s running %s" (vendor_string t.vendor) t.model
           t.os_version))
    ();
  Mib.register_scalar mib Oid.Std.sys_name
    ~get:(fun () -> Mib.Str (hostname t))
    ();
  Mib.register_scalar mib Oid.Std.sys_up_time
    ~get:(fun () -> Mib.Int (uptime_s t * 100 (* TimeTicks *)))
    ();
  Mib.register_scalar mib Oid.Std.if_number ~get:(fun () -> Mib.Int ports) ();
  (* The interface table: one provider covering the whole subtree. *)
  let if_bindings () =
    let node = Legacy_switch.node sw in
    List.concat
      (List.init ports (fun p ->
           let idx = p + 1 in
           [
             (Oid.Std.if_descr idx, Mib.Str (D.interface_name p));
             ( Oid.Std.if_oper_status idx,
               Mib.Int
                 (match Legacy_switch.port_mode sw ~port:p with
                 | Port_config.Disabled -> 2
                 | Port_config.Access _ | Port_config.Trunk _ -> 1) );
             (Oid.Std.if_in_ucast idx, Mib.Int (Node.rx_packets node ~port:p));
             (Oid.Std.if_out_ucast idx, Mib.Int (Node.tx_packets node ~port:p));
           ]))
  in
  Mib.register_subtree mib (Oid.Std.if_table) ~bindings:if_bindings ();
  (* dot1qPvid: readable and writable per port. *)
  let pvid_prefix = Oid.Std.vlan_port_vlan 0 |> Oid.to_list |> fun arcs ->
    Oid.of_list (List.filteri (fun i _ -> i < List.length arcs - 1) arcs)
  in
  let pvid_bindings () =
    List.filter_map
      (fun p ->
        match Legacy_switch.port_mode sw ~port:p with
        | Port_config.Access vid -> Some (Oid.Std.vlan_port_vlan (p + 1), Mib.Int vid)
        | Port_config.Trunk { native = Some v; _ } ->
            Some (Oid.Std.vlan_port_vlan (p + 1), Mib.Int v)
        | Port_config.Trunk { native = None; _ } | Port_config.Disabled -> None)
      (List.init ports Fun.id)
  in
  let pvid_set oid value =
    match (List.rev (Oid.to_list oid), value) with
    | idx :: _, Mib.Int vid when idx >= 1 && idx <= ports ->
        let port = idx - 1 in
        if not (Netpkt.Vlan.valid_vid vid) then Error "wrongValue"
        else begin
          match Legacy_switch.port_mode sw ~port with
          | Port_config.Access _ ->
              Legacy_switch.set_port_mode sw ~port (Port_config.Access vid);
              Ok ()
          | Port_config.Trunk { allowed; _ } ->
              Legacy_switch.set_port_mode sw ~port
                (Port_config.Trunk { native = Some vid; allowed });
              Ok ()
          | Port_config.Disabled -> Error "inconsistentValue"
        end
    | _, Mib.Int _ -> Error "noSuchInstance"
    | _, Mib.Str _ -> Error "wrongType"
  in
  Mib.register_subtree mib pvid_prefix ~bindings:pvid_bindings ~set:pvid_set ()

(* ---- NAPALM driver ---- *)

let napalm t =
  let (module D) = dialect t in
  let community = "public" in
  let snmp_int oid =
    match Snmp.get t.snmp ~community oid with
    | Ok (Mib.Int n) -> n
    | Ok (Mib.Str _) | Error _ -> 0
  in
  let snmp_str oid =
    match Snmp.get t.snmp ~community oid with
    | Ok (Mib.Str s) -> s
    | Ok (Mib.Int _) | Error _ -> ""
  in
  let get_facts () =
    {
      Napalm.vendor = vendor_string t.vendor;
      model = t.model;
      os_version = t.os_version;
      serial = t.serial;
      hostname = snmp_str Oid.Std.sys_name;
      uptime_s = snmp_int Oid.Std.sys_up_time / 100;
      interface_count = snmp_int Oid.Std.if_number;
    }
  in
  let get_interfaces () =
    let ports = snmp_int Oid.Std.if_number in
    List.init ports (fun p ->
        let idx = p + 1 in
        {
          Napalm.index = p;
          if_name = snmp_str (Oid.Std.if_descr idx);
          oper_up = snmp_int (Oid.Std.if_oper_status idx) = 1;
          in_packets = snmp_int (Oid.Std.if_in_ucast idx);
          out_packets = snmp_int (Oid.Std.if_out_ucast idx);
        })
  in
  let get_vlans () = Legacy_switch.vlans_in_use t.switch in
  let get_config () = running_config_text t in
  let load_candidate text =
    match napalm_faulted t ~op:"napalm.load_candidate" with
    | Some e -> e
    | None -> (
        match D.parse text with
        | Ok config ->
            t.candidate <- Some config;
            Ok ()
        | Error msg -> Error msg)
  in
  let compare_config () =
    match t.candidate with
    | None -> []
    | Some candidate -> Device_config.diff (running_config t) candidate
  in
  let commit () =
    match napalm_faulted t ~op:"napalm.commit" with
    | Some e -> e
    | None -> (
        match t.candidate with
        | None -> Error "no candidate configuration loaded"
        | Some candidate -> (
            let previous = running_config t in
            match Device_config.apply candidate t.switch with
            | () ->
                t.last_committed <- Some previous;
                t.candidate <- None;
                Ok ()
            | exception Invalid_argument msg -> Error msg))
  in
  let discard () = t.candidate <- None in
  let rollback () =
    match napalm_faulted t ~op:"napalm.rollback" with
    | Some e -> e
    | None -> (
        match t.last_committed with
        | None -> Error "nothing to roll back to"
        | Some previous ->
            Device_config.apply previous t.switch;
            t.last_committed <- None;
            Ok ())
  in
  {
    Napalm.driver_name = D.name;
    get_facts;
    get_interfaces;
    get_vlans;
    get_config;
    load_candidate;
    compare_config;
    commit;
    discard;
    rollback;
  }

let create ~switch ~vendor ?model ?os_version ?serial () =
  let model =
    match model with
    | Some m -> m
    | None -> (
        match vendor with
        | Cisco_like -> "Catalyst 2960-ish"
        | Arista_like -> "7048-ish"
        | Juniper_like -> "EX2200-ish")
  in
  let os_version =
    match os_version with
    | Some v -> v
    | None -> (
        match vendor with
        | Cisco_like -> "15.0(2)SE"
        | Arista_like -> "4.20.1F"
        | Juniper_like -> "12.3R12")
  in
  let serial =
    match serial with
    | Some s -> s
    | None -> Printf.sprintf "SIM%08d" (Hashtbl.hash (Legacy_switch.name switch) mod 100000000)
  in
  let mib = Mib.create () in
  let t =
    {
      switch;
      vendor;
      model;
      os_version;
      serial;
      snmp = Snmp.create mib;
      candidate = None;
      last_committed = None;
      fault = None;
    }
  in
  register_mib t mib;
  t
