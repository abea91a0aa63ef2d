open Simnet
open Softswitch

let patch_base = 2

type watchdog_status =
  | Idle
  | Watching
  | Activating
  | Gave_up of string

type t = {
  engine : Engine.t;
  device : Mgmt.Device.t;
  primary_trunk : int;
  backup_trunk : int;
  ss1 : Soft_switch.t;
  ss2 : Soft_switch.t;
  map : Port_map.t;
  mutable active : [ `Primary | `Backup ];
  mutable failovers : int;
  mutable failbacks : int;
  mutable status : watchdog_status;
  mutable generation : int; (* bumped by stop/start; stale ticks die *)
  mutable activation_retries : int;
  mutable last_error : string option;
}

let ss1 t = t.ss1
let ss2 t = t.ss2
let port_map t = t.map
let active t = t.active
let failovers t = t.failovers
let failbacks t = t.failbacks
let watchdog_status t = t.status
let activation_retries t = t.activation_retries
let last_error t = t.last_error

let count_failover ~direction =
  Telemetry.Registry.Counter.inc
    (Telemetry.Registry.Counter.v
       ~labels:[ ("direction", direction) ]
       ~help:"successful trunk activations" "failovers_total")

(* Flight-recorder events, correlated on the device hostname.  Guarded
   at every call site. *)
let event t ?level ?detail name =
  Telemetry.Trace.event ?level
    ~ts_ns:(Sim_time.to_ns (Engine.now t.engine))
    ~corr:
      (Telemetry.Trace.corr_of_string
         ("failover:" ^ Mgmt.Device.hostname t.device))
    ?detail ~stream:"failover" name

let provision engine ~device ~primary_trunk ~backup_trunk ~access_ports
    ?base_vid ?(dataplane = Soft_switch.Eswitch) ?pmd () =
  if primary_trunk = backup_trunk then Error "failover: trunks must differ"
  else if List.mem backup_trunk access_ports then
    Error "failover: backup trunk cannot be a managed access port"
  else
    match
      Manager.configure_device ~device ~trunk_port:primary_trunk ~access_ports
        ?base_vid ~disabled_ports:[ backup_trunk ] ()
    with
    | Error _ as e -> e
    | Ok (map, _report) ->
        let n = Port_map.size map in
        let host = Mgmt.Device.hostname device in
        let ss1 =
          Soft_switch.create engine
            ~name:(host ^ "-ss1")
            ~ports:(patch_base + n)
            ~dataplane ?pmd ~miss:Soft_switch.Drop_on_miss ()
        in
        let ss2 =
          Soft_switch.create engine
            ~name:(host ^ "-ss2")
            ~ports:n ~dataplane ?pmd ~miss:Soft_switch.Send_to_controller ()
        in
        for i = 0 to n - 1 do
          ignore
            (Patch_port.connect
               (Soft_switch.node ss1, patch_base + i)
               (Soft_switch.node ss2, i))
        done;
        Translator.install ~trunk_port:0 ~patch_base ss1 map;
        Ok
          {
            engine;
            device;
            primary_trunk;
            backup_trunk;
            ss1;
            ss2;
            map;
            active = `Primary;
            failovers = 0;
            failbacks = 0;
            status = Idle;
            generation = 0;
            activation_retries = 0;
            last_error = None;
          }

let reconfigure t ~trunk ~shut =
  Manager.configure_device ~device:t.device ~trunk_port:trunk
    ~access_ports:(Port_map.access_ports t.map)
    ~base_vid:(Port_map.base_vid t.map) ~disabled_ports:[ shut ] ()

let activate_backup t =
  match t.active with
  | `Backup -> Ok ()
  | `Primary -> (
      match reconfigure t ~trunk:t.backup_trunk ~shut:t.primary_trunk with
      | Error _ as e -> e
      | Ok _ ->
          (* Repoint SS_1's hairpin at the backup NIC (port 1). *)
          Translator.reinstall ~trunk_port:1 ~patch_base t.ss1 t.map;
          t.active <- `Backup;
          t.failovers <- t.failovers + 1;
          count_failover ~direction:"to_backup";
          if Telemetry.Trace.enabled () then
            event t ~level:Telemetry.Trace.Warn
              ~detail:(Mgmt.Device.hostname t.device ^ " to_backup")
              "failover";
          Ok ())

let activate_primary t =
  match t.active with
  | `Primary -> Ok ()
  | `Backup -> (
      match reconfigure t ~trunk:t.primary_trunk ~shut:t.backup_trunk with
      | Error _ as e -> e
      | Ok _ ->
          Translator.reinstall ~trunk_port:0 ~patch_base t.ss1 t.map;
          t.active <- `Primary;
          t.failbacks <- t.failbacks + 1;
          count_failover ~direction:"to_primary";
          if Telemetry.Trace.enabled () then
            event t
              ~detail:(Mgmt.Device.hostname t.device ^ " to_primary")
              "failback";
          Ok ())

(* The health probe: carrier on SS_1's trunk NIC.  Port 0 is the primary
   trunk, port 1 the backup. *)
let trunk_healthy t = function
  | `Primary -> Node.carrier (Soft_switch.node t.ss1) ~port:0
  | `Backup -> Node.carrier (Soft_switch.node t.ss1) ~port:1

let start_watchdog ?(policy = Mgmt.Retry.default) ?(failback = false)
    ?on_failure t ~period =
  if period <= 0 then invalid_arg "Failover.start_watchdog: bad period";
  t.generation <- t.generation + 1;
  let gen = t.generation in
  t.status <- Watching;
  let give_up msg =
    t.last_error <- Some msg;
    t.status <- Gave_up msg;
    if Telemetry.Trace.enabled () then
      event t ~level:Telemetry.Trace.Error
        ~detail:(Mgmt.Device.hostname t.device ^ " " ^ msg)
        "gave_up";
    match on_failure with Some f -> f msg | None -> ()
  in
  let rec schedule_tick () = Engine.schedule_after t.engine period tick
  and activate target =
    t.status <- Activating;
    let name, f =
      match target with
      | `Backup -> ("backup", fun () -> activate_backup t)
      | `Primary -> ("primary", fun () -> activate_primary t)
    in
    Mgmt.Retry.run_async t.engine ~policy
      ~op:(Printf.sprintf "failover.activate_%s" name)
      ~on_retry:(fun ~attempt:_ ~delay:_ msg ->
        t.activation_retries <- t.activation_retries + 1;
        t.last_error <- Some msg)
      f
      ~on_done:(fun result ->
        if t.generation = gen then
          match result with
          | Ok () ->
              t.last_error <- None;
              if failback then begin
                t.status <- Watching;
                schedule_tick ()
              end
              else
                (* Nothing left to fail over to — job done; stop so a
                   drained event queue still terminates unbounded runs. *)
                t.status <- Idle
          | Error msg -> give_up msg)
  and tick () =
    if t.generation = gen && t.status = Watching then begin
      let target =
        match t.active with
        | `Primary when not (trunk_healthy t `Primary) -> Some `Backup
        | `Backup when not (trunk_healthy t `Backup) ->
            (* Double failure: the standby died too.  If the primary came
               back meanwhile, return to it; otherwise keep watching. *)
            if trunk_healthy t `Primary then Some `Primary else None
        | `Backup when failback && trunk_healthy t `Primary -> Some `Primary
        | `Primary | `Backup -> None
      in
      (* [activate]'s completion callback owns rescheduling from here —
         it may fire synchronously, so don't also schedule a tick. *)
      match target with
      | Some target -> activate target
      | None -> schedule_tick ()
    end
  in
  schedule_tick ()
