open Simnet

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Circuit breaker                                                     *)
(* ------------------------------------------------------------------ *)

module Breaker = struct
  type state = Closed | Open | Half_open

  type t = {
    threshold : int;
    cooldown : Sim_time.span;
    mutable failures : int; (* consecutive *)
    mutable opened_at : Sim_time.t option;
    mutable trips : int;
  }

  let create ?(threshold = 3) ?(cooldown = Sim_time.ms 100) () =
    if threshold < 1 then invalid_arg "Breaker.create: threshold < 1";
    if cooldown <= 0 then invalid_arg "Breaker.create: cooldown <= 0";
    { threshold; cooldown; failures = 0; opened_at = None; trips = 0 }

  let reopen_at t = Option.map (fun at -> Sim_time.add at t.cooldown) t.opened_at

  let state t ~now =
    match t.opened_at with
    | None -> Closed
    | Some at -> if Sim_time.(now < Sim_time.add at t.cooldown) then Open else Half_open

  let allow t ~now = state t ~now <> Open

  let record t ~now ~ok =
    if ok then begin
      t.failures <- 0;
      t.opened_at <- None
    end
    else begin
      t.failures <- t.failures + 1;
      match state t ~now with
      | Half_open ->
          (* The probe failed: re-open for another full cooldown. *)
          t.trips <- t.trips + 1;
          t.opened_at <- Some now
      | Closed when t.failures >= t.threshold ->
          t.trips <- t.trips + 1;
          t.opened_at <- Some now
      | Closed | Open -> ()
    end

  let trips t = t.trips
  let consecutive_failures t = t.failures

  let pp_state ppf s =
    Format.pp_print_string ppf
      (match s with Closed -> "closed" | Open -> "open" | Half_open -> "half-open")
end

(* ------------------------------------------------------------------ *)
(* Stages, gates, plans                                                *)
(* ------------------------------------------------------------------ *)

type stage = Precheck | Shadow | Canary | Commit

let stage_name = function
  | Precheck -> "precheck"
  | Shadow -> "shadow"
  | Canary -> "canary"
  | Commit -> "commit"

type gate = {
  probe : unit -> unit;
  healthy : now_ns:int -> (unit, string) result;
  interval : Sim_time.span;
  warmup : Sim_time.span;
  window : Sim_time.span;
}

let gate ?(interval = Sim_time.us 500) ?(warmup = Sim_time.ms 5)
    ?(window = Sim_time.ms 15) ~probe ~healthy () =
  if interval <= 0 then invalid_arg "Migration.gate: interval must be positive";
  if window <= 0 then invalid_arg "Migration.gate: window must be positive";
  if warmup < 0 then invalid_arg "Migration.gate: negative warmup";
  if warmup >= window then invalid_arg "Migration.gate: warmup >= window";
  { probe; healthy; interval; warmup; window }

let slo_gate ~alerts ?rules ?interval ?warmup ?window ~probe () =
  let healthy ~now_ns =
    Telemetry.Alert.eval alerts ~now_ns;
    let firing = Telemetry.Alert.firing alerts in
    let firing =
      match rules with
      | None -> firing
      | Some only -> List.filter (fun r -> List.mem r only) firing
    in
    match firing with
    | [] -> Ok ()
    | rs -> Error (Printf.sprintf "canary SLO breach: %s" (String.concat ", " rs))
  in
  gate ?interval ?warmup ?window ~probe ~healthy ()

type plan = {
  device : Mgmt.Device.t;
  trunk_port : int;
  access_ports : int list;
  base_vid : int option;
}

(* The [begin]-record encoding of a plan — enough for [recover] to
   recompute the target configuration from the WAL alone. *)
let plan_detail p =
  Printf.sprintf "device=%s trunk=%d access=%s base_vid=%s"
    (Mgmt.Device.hostname p.device)
    p.trunk_port
    (match p.access_ports with
    | [] -> "-"
    | ps -> String.concat "," (List.map string_of_int ps))
    (match p.base_vid with None -> "-" | Some v -> string_of_int v)

(* Parse a [begin] detail back into the plan parameters (the device
   handle itself is supplied by the recovering process). *)
let plan_of_detail detail =
  let kvs = List.filter (fun s -> s <> "") (String.split_on_char ' ' detail) in
  let find key =
    List.find_map
      (fun s ->
        match String.index_opt s '=' with
        | Some i when String.sub s 0 i = key ->
            Some (String.sub s (i + 1) (String.length s - i - 1))
        | _ -> None)
      kvs
  in
  let int_field key s =
    match int_of_string_opt s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "begin record: bad %s %S" key s)
  in
  match (find "device", find "trunk", find "access", find "base_vid") with
  | Some host, Some trunk, Some access, Some base ->
      let* trunk = int_field "trunk" trunk in
      let* access_ports =
        if access = "-" then Ok []
        else
          List.fold_left
            (fun acc s ->
              let* acc = acc in
              let* p = int_field "access port" s in
              Ok (p :: acc))
            (Ok [])
            (String.split_on_char ',' access)
          |> Result.map List.rev
      in
      let* base_vid =
        if base = "-" then Ok None
        else Result.map Option.some (int_field "base_vid" base)
      in
      Ok (host, trunk, access_ports, base_vid)
  | _ -> Error (Printf.sprintf "begin record: unparseable plan detail %S" detail)

type hooks = {
  on_shadow : Port_map.t -> (unit, string) result;
  on_commit : unit -> unit;
  on_rollback : unit -> unit;
}

let no_hooks =
  { on_shadow = (fun _ -> Ok ()); on_commit = ignore; on_rollback = ignore }

type status =
  | Pending
  | Running of stage
  | Committed
  | Rolled_back of string
  | Failed of string
  | Crashed of string

let status_terminal = function
  | Pending | Running _ -> false
  | Committed | Rolled_back _ | Failed _ | Crashed _ -> true

let pp_status ppf = function
  | Pending -> Format.pp_print_string ppf "pending"
  | Running s -> Format.fprintf ppf "running %s" (stage_name s)
  | Committed -> Format.pp_print_string ppf "committed"
  | Rolled_back why -> Format.fprintf ppf "rolled back (%s)" why
  | Failed why -> Format.fprintf ppf "failed (%s)" why
  | Crashed where -> Format.fprintf ppf "crashed (%s)" where

(* ------------------------------------------------------------------ *)
(* The per-switch machine                                              *)
(* ------------------------------------------------------------------ *)

type t = {
  engine : Engine.t;
  wal : Mgmt.Txn.t;
  id : string;
  plan : plan;
  retry : Mgmt.Retry.policy;
  rng : Rng.t option;
  budget : Mgmt.Retry.budget option;
  g : gate option;
  hooks : hooks;
  mutable status : status;
  mutable map : Port_map.t option;
  mutable rollback_count : int;
  mutable rolling_back : bool;
  mutable dead : bool; (* crash fired; every pending closure is inert *)
  mutable observers : (stage -> unit) list;
  mutable done_cb : status -> unit;
}

let create engine ~wal ?txn_id ?(retry = Mgmt.Retry.default) ?rng ?deadline
    ?gate:g ?(hooks = no_hooks) plan =
  let id =
    match txn_id with Some id -> id | None -> Mgmt.Device.hostname plan.device
  in
  {
    engine;
    wal;
    id;
    plan;
    retry;
    rng;
    budget = Option.map Mgmt.Retry.budget deadline;
    g;
    hooks;
    status = Pending;
    map = None;
    rollback_count = 0;
    rolling_back = false;
    dead = false;
    observers = [];
    done_cb = ignore;
  }

let status t = t.status
let port_map t = t.map
let rollbacks t = t.rollback_count
let on_stage t f = t.observers <- t.observers @ [ f ]

let journal t entry = ignore (Mgmt.Txn.append t.wal ~txn:t.id entry)

(* Flight-recorder events, correlated on the txn id — the same id the
   WAL stream hashes, so a post-mortem joins stage boundaries to the
   journal records they bracket.  Guarded at every call site. *)
let event t ?level ?detail name =
  Telemetry.Trace.event ?level
    ~ts_ns:(Sim_time.to_ns (Engine.now t.engine))
    ~corr:(Telemetry.Trace.corr_of_string t.id)
    ?detail ~stream:"migration" name

let crash_point t =
  if t.rolling_back then "rollback"
  else match t.status with Running s -> stage_name s | _ -> "begin"

(* Run [f], absorbing an armed WAL crash: the record is persisted but
   the "manager process" is gone — the machine goes inert and nobody is
   called back.  Recovery owns the rest. *)
let guard t f =
  if not t.dead then
    try f ()
    with Mgmt.Txn.Crashed ->
      t.status <- Crashed (crash_point t);
      t.dead <- true;
      if Telemetry.Trace.enabled () then
        event t ~level:Telemetry.Trace.Error
          ~detail:(t.id ^ " at " ^ crash_point t)
          "crashed"

let after t span f = Engine.schedule_after t.engine span (fun () -> guard t f)

let finish t status =
  t.status <- status;
  if Telemetry.Trace.enabled () then begin
    match status with
    | Committed -> event t ~detail:t.id "committed"
    | Rolled_back why -> event t ~detail:(t.id ^ " " ^ why) "rolled-back"
    | Failed why ->
        event t ~level:Telemetry.Trace.Error ~detail:(t.id ^ " " ^ why)
          "failed"
    | Pending | Running _ | Crashed _ -> ()
  end;
  (match status with
  | Rolled_back _ ->
      Telemetry.Registry.Counter.inc
        (Telemetry.Registry.Counter.v
           ~help:"migrations rolled back, by device"
           ~labels:[ ("device", t.id) ]
           "migration_rollbacks_total")
  | Committed ->
      Telemetry.Registry.Counter.inc
        (Telemetry.Registry.Counter.v
           ~help:"migrations committed, by device"
           ~labels:[ ("device", t.id) ]
           "migration_commits_total")
  | _ -> ());
  t.done_cb status

(* Undo the device side, guarded by state inspection: NAPALM rollback
   restores "the config before the last commit" and is not idempotent,
   so only call it when the running config actually is our candidate.
   Deliberately not charged to the forward-path deadline budget. *)
let device_rollback t =
  let napalm = Mgmt.Device.napalm t.plan.device in
  napalm.Mgmt.Napalm.discard ();
  match t.map with
  | None -> Ok "no mapping computed; device untouched"
  | Some map ->
      let candidate =
        Manager.candidate_config ~device:t.plan.device
          ~trunk_port:t.plan.trunk_port ~map ()
      in
      let running = Mgmt.Device.running_config t.plan.device in
      if Mgmt.Device_config.equal_modes running candidate then
        match
          Mgmt.Retry.run ~policy:t.retry ~op:"migration.rollback" ?rng:t.rng
            napalm.Mgmt.Napalm.rollback
        with
        | Ok () -> Ok "rolled device config back"
        | Error e -> Error e
      else Ok "running config is not the candidate; no device rollback needed"

let rollback t ~reason =
  t.rolling_back <- true;
  if Telemetry.Trace.enabled () then
    event t ~level:Telemetry.Trace.Warn ~detail:(t.id ^ " " ^ reason)
      "rollback";
  journal t (Mgmt.Txn.Rollback reason);
  match device_rollback t with
  | Error e ->
      journal t (Mgmt.Txn.Note ("device rollback failed: " ^ e));
      finish t
        (Failed (Printf.sprintf "rollback failed: %s — device state unknown" e))
  | Ok note ->
      t.hooks.on_rollback ();
      journal t (Mgmt.Txn.Note note);
      journal t Mgmt.Txn.Rolled_back;
      t.rollback_count <- t.rollback_count + 1;
      finish t (Rolled_back reason)

let rec enter t stage =
  t.status <- Running stage;
  if Telemetry.Trace.enabled () then
    event t ~detail:(t.id ^ " " ^ stage_name stage) "stage";
  journal t (Mgmt.Txn.Stage_start (stage_name stage));
  List.iter (fun f -> f stage) t.observers;
  match stage with
  | Precheck -> do_precheck t
  | Shadow -> do_shadow t
  | Canary -> do_canary t
  | Commit -> do_commit t

and do_precheck t =
  match
    Manager.precheck ~device:t.plan.device ~trunk_port:t.plan.trunk_port
      ~access_ports:t.plan.access_ports ?base_vid:t.plan.base_vid ()
  with
  | Error e -> rollback t ~reason:("precheck failed: " ^ e)
  | Ok (map, _facts, _steps) ->
      t.map <- Some map;
      journal t (Mgmt.Txn.Stage_done "precheck");
      after t 0 (fun () -> enter t Shadow)

and do_shadow t =
  let map = Option.get t.map in
  (* Make before break: the shadow artifacts (SS_1/SS_2, patches, trunk
     link, controller attachment) come up first; only then is the device
     config flipped. *)
  match t.hooks.on_shadow map with
  | Error e -> rollback t ~reason:("shadow build failed: " ^ e)
  | Ok () -> (
      match
        Manager.push_config ~device:t.plan.device ~trunk_port:t.plan.trunk_port
          ~map ~retry:t.retry ?rng:t.rng ?budget:t.budget ()
      with
      | Error e -> rollback t ~reason:("config push failed: " ^ e)
      | Ok _diff ->
          journal t (Mgmt.Txn.Stage_done "shadow");
          after t 0 (fun () -> enter t Canary))

and do_canary t =
  match t.g with
  | None ->
      journal t (Mgmt.Txn.Stage_done "canary");
      after t 0 (fun () -> enter t Commit)
  | Some g ->
      let started = Engine.now t.engine in
      let rec tick () =
        if t.dead || status_terminal t.status then ()
        else
          let now = Engine.now t.engine in
          let elapsed = Sim_time.diff now started in
          if elapsed >= g.window then begin
            journal t (Mgmt.Txn.Stage_done "canary");
            after t 0 (fun () -> enter t Commit)
          end
          else begin
            g.probe ();
            let verdict =
              (* Collect data from the first tick, but pass no judgment
                 during warmup: the control channel may still be
                 handshaking and the first stats still in flight. *)
              if elapsed >= g.warmup then g.healthy ~now_ns:(Sim_time.to_ns now)
              else Ok ()
            in
            match verdict with
            | Error reason -> rollback t ~reason
            | Ok () -> after t g.interval tick
          end
      in
      after t g.interval tick

and do_commit t =
  t.hooks.on_commit ();
  journal t (Mgmt.Txn.Stage_done "commit");
  journal t Mgmt.Txn.Committed;
  finish t Committed

let start t ~on_done =
  (match t.status with
  | Pending -> ()
  | _ -> invalid_arg "Migration.start: already started");
  t.done_cb <- on_done;
  after t 0 (fun () ->
      journal t (Mgmt.Txn.Begin (plan_detail t.plan));
      enter t Precheck)

let run t =
  start t ~on_done:ignore;
  let continue = ref true in
  while (not (status_terminal t.status)) && !continue do
    continue := Engine.step t.engine
  done;
  t.status

(* ------------------------------------------------------------------ *)
(* Crash recovery                                                      *)
(* ------------------------------------------------------------------ *)

type recovery = {
  txn : string;
  resolution : Mgmt.Txn.resolution;
  actions : string list;
  status : status;
}

let recover ~wal ~txn_id ~device ?(hooks = no_hooks)
    ?(retry = Mgmt.Retry.default) () =
  let open Mgmt in
  let resolution = Txn.resolve wal ~txn:txn_id in
  let records = Txn.records_of wal ~txn:txn_id in
  let actions = ref [] in
  let act fmt = Printf.ksprintf (fun s -> actions := s :: !actions) fmt in
  let result status =
    { txn = txn_id; resolution; actions = List.rev !actions; status }
  in
  (* Recompute the target configuration from the WAL alone — the crashed
     process's plan lives in the [begin] record. *)
  let candidate () =
    match
      List.find_map
        (fun r -> match r.Txn.entry with Txn.Begin d -> Some d | _ -> None)
        records
    with
    | None -> Ok None
    | Some d -> (
        let* host, trunk, access_ports, base_vid = plan_of_detail d in
        if host <> Device.hostname device then
          Error
            (Printf.sprintf "WAL plan is for device %s, not %s" host
               (Device.hostname device))
        else
          match Port_map.make ?base_vid ~access_ports () with
          | map ->
              Ok (Some (Manager.candidate_config ~device ~trunk_port:trunk ~map ()))
          | exception Invalid_argument _ ->
              (* The plan never survived precheck; nothing was applied. *)
              Ok None)
  in
  match resolution with
  | Txn.Fresh ->
      act "nothing journaled; nothing to recover";
      Ok (result (Rolled_back "never started"))
  | Txn.Committed_ -> (
      let* cand = candidate () in
      match cand with
      | Some c when Device_config.equal_modes (Device.running_config device) c ->
          act "verified running config matches the committed candidate";
          Ok (result Committed)
      | Some _ ->
          act "running config differs from the committed candidate";
          Ok
            (result
               (Failed
                  "WAL says committed but the running config is not the \
                   candidate — device state unknown"))
      | None ->
          act "no plan in WAL to verify against; trusting the committed record";
          Ok (result Committed))
  | Txn.Rolled_back_ why ->
      act "transaction already terminal in WAL; nothing to do";
      Ok (result (Rolled_back why))
  | Txn.Needs_rollback why -> (
      let* cand = candidate () in
      let napalm = Device.napalm device in
      napalm.Napalm.discard ();
      act "discarded any staged candidate";
      let undo =
        match cand with
        | Some c when Device_config.equal_modes (Device.running_config device) c -> (
            match
              Retry.run ~policy:retry ~op:"migration.recover.rollback"
                napalm.Napalm.rollback
            with
            | Ok () ->
                act "running config was the candidate; rolled device back";
                Ok ()
            | Error e -> Error e)
        | _ ->
            act "running config is not the candidate; no device rollback needed";
            Ok ()
      in
      match undo with
      | Error e ->
          (* Leave the WAL open so a later recovery attempt retries. *)
          Ok
            (result
               (Failed
                  (Printf.sprintf
                     "recovery rollback failed: %s — device state unknown" e)))
      | Ok () ->
          hooks.on_rollback ();
          let already_decided =
            List.exists
              (fun r ->
                match r.Txn.entry with Txn.Rollback _ -> true | _ -> false)
              records
          in
          if not already_decided then
            ignore (Txn.append wal ~txn:txn_id (Txn.Rollback ("recovery: " ^ why)));
          ignore (Txn.append wal ~txn:txn_id Txn.Rolled_back);
          act "journaled rolled-back";
          Ok (result (Rolled_back why)))

(* ------------------------------------------------------------------ *)
(* Fleet orchestration                                                 *)
(* ------------------------------------------------------------------ *)

module Fleet = struct
  type migration = t

  let machine_create = create
  let machine_start = start
  let machine_rollbacks = rollbacks
  let machine_on_stage = on_stage

  type member = {
    name : string;
    plan : plan;
    gate : gate option;
    hooks : hooks option;
  }

  type member_status =
    | Waiting
    | Migrating of stage
    | Done of status
    | Skipped of string

  type state = Idle | Running | Paused | Aborted of string | Done

  type slot = {
    member : member;
    mutable mstatus : member_status;
    mutable machine : migration option;
  }

  type t = {
    engine : Engine.t;
    wal : Mgmt.Txn.t;
    concurrency : int;
    blast_radius : int;
    brk : Breaker.t;
    retry : Mgmt.Retry.policy;
    deadline : Sim_time.span option;
    seed : int;
    slots : slot array;
    mutable next : int;
    mutable st : state;
    mutable in_flight : int;
    mutable failures : int;
    mutable pump_scheduled : bool;
  }

  let create engine ~wal ?(concurrency = 1) ?(blast_radius = 0) ?breaker
      ?(retry = Mgmt.Retry.default) ?deadline ?(seed = 42) members =
    if members = [] then invalid_arg "Fleet.create: no members";
    if concurrency < 1 then invalid_arg "Fleet.create: concurrency < 1";
    if blast_radius < 0 then invalid_arg "Fleet.create: blast_radius < 0";
    let names = List.map (fun m -> m.name) members in
    if List.length (List.sort_uniq String.compare names) <> List.length names
    then invalid_arg "Fleet.create: duplicate member names";
    let brk =
      match breaker with Some b -> b | None -> Breaker.create ()
    in
    {
      engine;
      wal;
      concurrency;
      blast_radius;
      brk;
      retry;
      deadline;
      seed;
      slots =
        Array.of_list
          (List.map
             (fun m -> { member = m; mstatus = Waiting; machine = None })
             members);
      next = 0;
      st = Idle;
      in_flight = 0;
      failures = 0;
      pump_scheduled = false;
    }

  let state fl = fl.st
  let in_flight fl = fl.in_flight
  let breaker fl = fl.brk

  let fleet_event fl ?level ?corr ?detail name =
    Telemetry.Trace.event ?level
      ~ts_ns:(Sim_time.to_ns (Engine.now fl.engine))
      ~corr:
        (match corr with
        | Some c -> c
        | None -> Telemetry.Trace.corr_of_string "fleet")
      ?detail ~stream:"fleet" name

  let rollbacks_total fl =
    Array.fold_left
      (fun acc s ->
        match s.machine with Some m -> acc + machine_rollbacks m | None -> acc)
      0 fl.slots

  let abort fl ~reason =
    match fl.st with
    | Done | Aborted _ -> ()
    | Idle | Running | Paused ->
        if Telemetry.Trace.enabled () then
          fleet_event fl ~level:Telemetry.Trace.Error ~detail:reason "abort";
        fl.st <- Aborted reason;
        for i = fl.next to Array.length fl.slots - 1 do
          fl.slots.(i).mstatus <- Skipped ("fleet aborted: " ^ reason)
        done;
        fl.next <- Array.length fl.slots

  let rec pump fl =
    match fl.st with
    | Idle | Paused | Done | Aborted _ -> ()
    | Running ->
        if fl.next >= Array.length fl.slots then begin
          if fl.in_flight = 0 then fl.st <- Done
        end
        else if fl.in_flight < fl.concurrency then begin
          let now = Engine.now fl.engine in
          if Breaker.allow fl.brk ~now then begin
            let idx = fl.next in
            fl.next <- idx + 1;
            launch fl fl.slots.(idx) idx;
            pump fl
          end
          else
            (* Breaker open: try again when its cooldown ends. *)
            match Breaker.reopen_at fl.brk with
            | Some at when Sim_time.(now < at) ->
                if not fl.pump_scheduled then begin
                  fl.pump_scheduled <- true;
                  Engine.schedule_at fl.engine at (fun () ->
                      fl.pump_scheduled <- false;
                      pump fl)
                end
            | _ -> ()
        end

  and launch fl slot idx =
    (* One derived rng per member: concurrent retry storms
       de-synchronise, deterministically in the fleet seed. *)
    let rng = Rng.create (fl.seed + (31 * (idx + 1))) in
    let m =
      machine_create fl.engine ~wal:fl.wal ~txn_id:slot.member.name
        ~retry:fl.retry ~rng ?deadline:fl.deadline ?gate:slot.member.gate
        ?hooks:slot.member.hooks slot.member.plan
    in
    slot.machine <- Some m;
    slot.mstatus <- Migrating Precheck;
    machine_on_stage m (fun st -> slot.mstatus <- Migrating st);
    fl.in_flight <- fl.in_flight + 1;
    if Telemetry.Trace.enabled () then
      fleet_event fl ~level:Telemetry.Trace.Debug
        ~corr:(Telemetry.Trace.corr_of_string slot.member.name)
        ~detail:slot.member.name "launch";
    machine_start m ~on_done:(fun st -> settle fl slot st)

  and settle fl slot st =
    slot.mstatus <- Done st;
    fl.in_flight <- fl.in_flight - 1;
    let ok = match st with Committed -> true | _ -> false in
    if Telemetry.Trace.enabled () then
      fleet_event fl
        ~level:(if ok then Telemetry.Trace.Info else Telemetry.Trace.Warn)
        ~corr:(Telemetry.Trace.corr_of_string slot.member.name)
        ~detail:
          (Printf.sprintf "%s %s" slot.member.name
             (Format.asprintf "%a" pp_status st))
        "settle";
    Breaker.record fl.brk ~now:(Engine.now fl.engine) ~ok;
    if not ok then begin
      fl.failures <- fl.failures + 1;
      if fl.failures > fl.blast_radius then
        abort fl
          ~reason:
            (Printf.sprintf "blast radius exceeded (%d failed, %d tolerated)"
               fl.failures fl.blast_radius)
    end;
    pump fl

  let start fl =
    match fl.st with
    | Idle ->
        fl.st <- Running;
        pump fl
    | _ -> invalid_arg "Fleet.start: already started"

  let pause fl = match fl.st with Running -> fl.st <- Paused | _ -> ()

  let resume fl =
    match fl.st with
    | Paused ->
        fl.st <- Running;
        pump fl
    | _ -> ()

  let settled fl =
    match fl.st with
    | Done -> true
    | Aborted _ -> fl.in_flight = 0
    | Idle | Running | Paused -> false

  let run fl =
    (match fl.st with Idle -> start fl | _ -> ());
    let continue = ref true in
    while (not (settled fl)) && !continue do
      continue := Engine.step fl.engine
    done

  let progress fl =
    Array.to_list (Array.map (fun s -> (s.member.name, s.mstatus)) fl.slots)

  type report = {
    total : int;
    committed : int;
    rolled_back : int;
    failed : int;
    skipped : int;
    aborted : string option;
    breaker_trips : int;
    members : (string * member_status) list;
  }

  let report fl =
    let count p =
      Array.fold_left (fun acc s -> if p s.mstatus then acc + 1 else acc) 0 fl.slots
    in
    {
      total = Array.length fl.slots;
      committed = count (function Done Committed -> true | _ -> false);
      rolled_back = count (function Done (Rolled_back _) -> true | _ -> false);
      failed =
        count (function Done (Failed _ | Crashed _) -> true | _ -> false);
      skipped = count (function Skipped _ -> true | _ -> false);
      aborted = (match fl.st with Aborted r -> Some r | _ -> None);
      breaker_trips = Breaker.trips fl.brk;
      members = progress fl;
    }

  let pp_member_status ppf = function
    | Waiting -> Format.pp_print_string ppf "waiting"
    | Migrating s -> Format.fprintf ppf "migrating:%s" (stage_name s)
    | Done st -> pp_status ppf st
    | Skipped why -> Format.fprintf ppf "skipped (%s)" why

  let pp_report ppf r =
    Format.fprintf ppf
      "@[<v>fleet: %d total, %d committed, %d rolled back, %d failed, %d \
       skipped%s (breaker trips %d)"
      r.total r.committed r.rolled_back r.failed r.skipped
      (match r.aborted with
      | None -> ""
      | Some reason -> Printf.sprintf ", ABORTED: %s" reason)
      r.breaker_trips;
    List.iter
      (fun (name, st) ->
        Format.fprintf ppf "@,  %-12s %a" name pp_member_status st)
      r.members;
    Format.fprintf ppf "@]"

  let state_string fl =
    match fl.st with
    | Idle -> "idle"
    | Running -> "running"
    | Paused -> "paused"
    | Aborted reason -> "aborted: " ^ reason
    | Done -> "done"

  let render fl =
    let r = report fl in
    let now = Engine.now fl.engine in
    let b = Buffer.create 512 in
    Printf.bprintf b
      "migration fleet — %d/%d committed, %d rolled back, %d failed, %d \
       skipped, %d in flight\n"
      r.committed r.total r.rolled_back r.failed r.skipped fl.in_flight;
    Printf.bprintf b
      "  state: %s   breaker: %s (%d trips)   rollbacks_total: %d\n"
      (state_string fl)
      (Format.asprintf "%a" Breaker.pp_state (Breaker.state fl.brk ~now))
      r.breaker_trips (rollbacks_total fl);
    List.iter
      (fun (name, st) ->
        Printf.bprintf b "  %-14s %s\n" name
          (Format.asprintf "%a" pp_member_status st))
      r.members;
    Buffer.contents b

  let publish_metrics ?registry ?(labels = []) fl =
    let r = report fl in
    let g name v =
      Telemetry.Registry.Gauge.set_int
        (Telemetry.Registry.Gauge.v ?registry ~labels name)
        v
    in
    g "migration_fleet_total" r.total;
    g "migration_fleet_committed" r.committed;
    g "migration_fleet_rolled_back" r.rolled_back;
    g "migration_fleet_failed" r.failed;
    g "migration_fleet_skipped" r.skipped;
    g "migration_fleet_in_flight" fl.in_flight;
    g "migration_fleet_breaker_trips" r.breaker_trips;
    g "migration_fleet_rollbacks_total" (rollbacks_total fl)
end
