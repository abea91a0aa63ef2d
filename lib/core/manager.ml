open Ethswitch
open Mgmt
open Softswitch

type report = {
  facts : Napalm.facts;
  config_diff : string list;
  steps : string list;
}

type provisioned = {
  ss1 : Soft_switch.t;
  ss2 : Soft_switch.t;
  port_map : Port_map.t;
  report : report;
}

let ( let* ) = Result.bind

let target_config device ~trunk_port ~map ~disabled_ports =
  let current = Device.running_config device in
  let vids = Port_map.vids map in
  let stanza_for port =
    if List.mem port disabled_ports then
      {
        Device_config.port;
        mode = Port_config.Disabled;
        description = Some "HARMLESS standby trunk (shut)";
      }
    else
    match Port_map.vid_of_access_port map port with
    | Some vid ->
        {
          Device_config.port;
          mode = Port_config.Access vid;
          description = Some (Printf.sprintf "HARMLESS access (vlan %d)" vid);
        }
    | None ->
        if port = trunk_port then
          {
            Device_config.port;
            mode = Port_config.Trunk { native = None; allowed = Port_config.Only vids };
            description = Some "HARMLESS trunk to soft-switch server";
          }
        else
          (* Leave unmanaged ports exactly as they are. *)
          match Device_config.stanza_for current ~port with
          | Some stanza -> stanza
          | None ->
              { Device_config.port; mode = Port_config.default; description = None }
  in
  let ports =
    List.init (Legacy_switch.port_count (Device.switch device)) Fun.id
  in
  Device_config.make
    ~hostname:(Device.hostname device)
    (List.map stanza_for ports)

let verify_over_snmp device ~map =
  let snmp = Device.snmp device in
  let check (port, expected_vid) =
    match
      Snmp.get snmp ~community:"public" (Oid.Std.vlan_port_vlan (port + 1))
    with
    | Ok (Mib.Int vid) when vid = expected_vid -> Ok ()
    | Ok (Mib.Int vid) ->
        Error
          (`Permanent
            (Printf.sprintf "verification: port %d has pvid %d, expected %d"
               port vid expected_vid))
    | Ok (Mib.Str _) -> Error (`Permanent "verification: pvid has wrong type")
    | Error e ->
        let msg = Format.asprintf "verification: snmp %a" Snmp.pp_error e in
        Error (if Snmp.is_transient e then `Transient msg else `Permanent msg)
  in
  let pairs =
    List.filter_map
      (fun port ->
        Option.map (fun vid -> (port, vid)) (Port_map.vid_of_access_port map port))
      (Port_map.access_ports map)
  in
  List.fold_left
    (fun acc pair -> match acc with Error _ -> acc | Ok () -> check pair)
    (Ok ()) pairs

let candidate_config ~device ~trunk_port ~map ?(disabled_ports = []) () =
  target_config device ~trunk_port ~map ~disabled_ports

let precheck ~device ~trunk_port ~access_ports ?base_vid
    ?(disabled_ports = []) () =
  let steps = ref [] in
  let log fmt = Printf.ksprintf (fun s -> steps := s :: !steps) fmt in
  let napalm = Device.napalm device in
  let facts = napalm.Napalm.get_facts () in
  log "connected via %s driver: %s" napalm.Napalm.driver_name
    (Format.asprintf "%a" Napalm.pp_facts facts);
  let* () =
    if List.mem trunk_port access_ports then
      Error "trunk port cannot also be a managed access port"
    else Ok ()
  in
  let* () =
    let bad =
      List.filter
        (fun p -> p < 0 || p >= facts.Napalm.interface_count)
        ((trunk_port :: access_ports) @ disabled_ports)
    in
    if bad = [] then Ok ()
    else
      Error
        (Printf.sprintf "ports %s do not exist on %s"
           (String.concat "," (List.map string_of_int bad))
           facts.Napalm.hostname)
  in
  let* map =
    match Port_map.make ?base_vid ~access_ports () with
    | map -> Ok map
    | exception Invalid_argument msg -> Error msg
  in
  log "computed mapping: %s" (Format.asprintf "%a" Port_map.pp map);
  Ok (map, facts, List.rev !steps)

let push_config ~device ~trunk_port ~map ?(disabled_ports = [])
    ?(retry = Retry.default) ?rng ?budget ?(log = fun _ -> ()) () =
  let logf fmt = Printf.ksprintf log fmt in
  let napalm = Device.napalm device in
  (* Stage and commit the tagging configuration. *)
  let (module D : Dialect.S) = Device.dialect device in
  let candidate_text = D.render (target_config device ~trunk_port ~map ~disabled_ports) in
  let attempt ~op f =
    Retry.run ~policy:retry ~op ?rng ?budget
      ~on_retry:(fun ~attempt ~delay:_ msg ->
        logf "%s failed (attempt %d): %s — retrying" op attempt msg)
      f
  in
  let* () =
    attempt ~op:"manager.load_candidate" (fun () ->
        napalm.Napalm.load_candidate candidate_text)
  in
  let diff = napalm.Napalm.compare_config () in
  logf "candidate loaded (%d changes)" (List.length diff);
  let* () = attempt ~op:"manager.commit" napalm.Napalm.commit in
  logf "committed configuration";
  let* () =
    (* Retry only transient SNMP errors (lost datagrams); a genuine VLAN
       mismatch will not fix itself, so it passes through and triggers
       the rollback.  The nested result keeps the two apart. *)
    let verified =
      attempt ~op:"manager.verify" (fun () ->
          match verify_over_snmp device ~map with
          | Ok () -> Ok (Ok ())
          | Error (`Transient msg) -> Error msg
          | Error (`Permanent msg) -> Ok (Error msg))
    in
    match verified with
    | Ok (Ok ()) ->
        logf "verified port VLANs over SNMP";
        Ok ()
    | (Ok (Error msg) | Error msg) -> (
        (* Leave the device as we found it. *)
        match attempt ~op:"manager.rollback" napalm.Napalm.rollback with
        | Ok () ->
            logf "verification failed; rolled back";
            Error msg
        | Error rollback_msg ->
            logf "verification failed; rollback also failed: %s" rollback_msg;
            Error
              (Printf.sprintf
                 "%s; rollback also failed: %s — device state unknown" msg
                 rollback_msg))
  in
  Ok diff

let configure_device ~device ~trunk_port ~access_ports ?base_vid
    ?(disabled_ports = []) ?(retry = Retry.default) ?rng ?deadline () =
  let* map, facts, precheck_steps =
    precheck ~device ~trunk_port ~access_ports ?base_vid ~disabled_ports ()
  in
  let steps = ref (List.rev precheck_steps) in
  let log s = steps := s :: !steps in
  let budget = Option.map Retry.budget deadline in
  let* diff =
    push_config ~device ~trunk_port ~map ~disabled_ports ~retry ?rng ?budget
      ~log ()
  in
  Ok (map, { facts; config_diff = diff; steps = List.rev !steps })

let provision engine ~device ~trunk_port ~access_ports ?base_vid ?dataplane
    ?pmd ?retry () =
  let* map, report =
    configure_device ~device ~trunk_port ~access_ports ?base_vid ?retry ()
  in
  (* Bring up the software side. *)
  let n = Port_map.size map in
  let host = report.facts.Napalm.hostname in
  let server =
    Server.build engine ?dataplane ?pmd ~nics:1 ~ss2:(host ^ "-ss2")
      [ (host, map) ]
  in
  let ss1 = server.Server.ss1s.(0) in
  let step =
    Printf.sprintf
      "instantiated SS_1 (%d ports) and SS_2 (%d ports), %d translator rules"
      (Simnet.Node.port_count (Soft_switch.node ss1)) n (2 * n)
  in
  Ok
    {
      ss1;
      ss2 = server.Server.ss2;
      port_map = map;
      report = { report with steps = report.steps @ [ step ] };
    }

let deprovision device =
  let napalm = Device.napalm device in
  napalm.Napalm.rollback ()
