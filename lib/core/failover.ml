open Simnet
open Softswitch

(* SS_1's trunk NICs: the primary is port 0, the backup port 1. *)
let nic = function `Primary -> 0 | `Backup -> 1

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
    ?base_vid ?dataplane ?pmd () =
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
        let host = Mgmt.Device.hostname device in
        let server =
          Server.build engine ?dataplane ?pmd ~nics:2 ~ss2:(host ^ "-ss2")
            [ (host, map) ]
        in
        Ok
          {
            engine;
            device;
            primary_trunk;
            backup_trunk;
            ss1 = server.Server.ss1s.(0);
            ss2 = server.Server.ss2;
            map;
            active = `Primary;
            failovers = 0;
            failbacks = 0;
            status = Idle;
            generation = 0;
            activation_retries = 0;
            last_error = None;
          }

let legacy_port t = function
  | `Primary -> t.primary_trunk
  | `Backup -> t.backup_trunk

let connect_trunks t =
  let legacy = Ethswitch.Legacy_switch.node (Mgmt.Device.switch t.device) in
  let trunk side =
    Link.connect ~a_to_b:Link.ten_gige ~b_to_a:Link.ten_gige
      (legacy, legacy_port t side)
      (Soft_switch.node t.ss1, nic side)
  in
  (* Primary first: a tuple's evaluation order is unspecified. *)
  let primary = trunk `Primary in
  (primary, trunk `Backup)

let reinstall_translator t =
  Translator.reinstall ~trunk_port:(nic t.active) t.ss1 t.map

(* Bring [side]'s trunk up and shut the other one, on the device and in
   SS_1.  Idempotent once [side] is active. *)
let switch_to t side =
  if t.active = side then Ok ()
  else
    match
      Manager.configure_device ~device:t.device
        ~trunk_port:(legacy_port t side)
        ~access_ports:(Port_map.access_ports t.map)
        ~base_vid:(Port_map.base_vid t.map)
        ~disabled_ports:[ legacy_port t t.active ] ()
    with
    | Error _ as e -> e
    | Ok _ ->
        t.active <- side;
        reinstall_translator t;
        let level, name, direction =
          match side with
          | `Backup ->
              t.failovers <- t.failovers + 1;
              (Some Telemetry.Trace.Warn, "failover", "to_backup")
          | `Primary ->
              t.failbacks <- t.failbacks + 1;
              (None, "failback", "to_primary")
        in
        count_failover ~direction;
        if Telemetry.Trace.enabled () then
          event t ?level
            ~detail:(Mgmt.Device.hostname t.device ^ " " ^ direction)
            name;
        Ok ()

let activate_backup t = switch_to t `Backup
let activate_primary t = switch_to t `Primary

(* The health probe: carrier on SS_1's trunk NIC. *)
let trunk_healthy t trunk =
  Node.carrier (Soft_switch.node t.ss1) ~port:(nic trunk)

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
    let op =
      match target with
      | `Backup -> "failover.activate_backup"
      | `Primary -> "failover.activate_primary"
    in
    Mgmt.Retry.run_async t.engine ~policy ~op
      ~on_retry:(fun ~attempt:_ ~delay:_ msg ->
        t.activation_retries <- t.activation_retries + 1;
        t.last_error <- Some msg)
      (fun () -> switch_to t target)
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
