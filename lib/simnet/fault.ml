type action =
  | Down
  | Up
  | Degrade of { loss : float; jitter : Sim_time.span }
  | Flaky of int
  | Crash
  | Restart

type event = { after : Sim_time.span; target : string; action : action }

let pp_action fmt = function
  | Down -> Format.pp_print_string fmt "down"
  | Up -> Format.pp_print_string fmt "up"
  | Degrade { loss; jitter } ->
      Format.fprintf fmt "degrade loss=%g jitter=%a" loss Sim_time.pp_span jitter
  | Flaky n -> Format.fprintf fmt "flaky %d" n
  | Crash -> Format.pp_print_string fmt "crash"
  | Restart -> Format.pp_print_string fmt "restart"

let pp_event fmt e =
  Format.fprintf fmt "%a %s %a" Sim_time.pp_span e.after e.target pp_action
    e.action

let to_script events =
  events
  |> List.map (fun e -> Format.asprintf "%a" pp_event e)
  |> String.concat "\n"

let random_events rng ~targets ~n ~horizon =
  if targets = [] then invalid_arg "Fault.random_events: no targets";
  if horizon <= 0 then invalid_arg "Fault.random_events: horizon <= 0";
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  let events = ref [] in
  let emit e = events := e :: !events in
  for _ = 1 to n do
    let target = pick targets in
    let start = Rng.int rng (max 1 (horizon * 7 / 10)) in
    let stop = min horizon (start + 1 + Rng.int rng (max 1 (horizon / 4))) in
    match Rng.int rng 4 with
    | 0 ->
        emit { after = start; target; action = Down };
        emit { after = stop; target; action = Up }
    | 1 ->
        let loss = float_of_int (Rng.int rng 20) /. 100.0 in
        let jitter = Rng.int rng 100_000 in
        emit { after = start; target; action = Degrade { loss; jitter } };
        emit { after = stop; target; action = Up }
    | 2 -> emit { after = start; target; action = Flaky (1 + Rng.int rng 3) }
    | _ ->
        emit { after = start; target; action = Crash };
        emit { after = stop; target; action = Restart }
  done;
  List.stable_sort (fun a b -> compare a.after b.after) !events

(* ---- script parsing ---- *)

let parse_span s =
  let num_len =
    let rec go i =
      if i < String.length s
         && (match s.[i] with '0' .. '9' | '.' -> true | _ -> false)
      then go (i + 1)
      else i
    in
    go 0
  in
  if num_len = 0 then Error (Printf.sprintf "bad duration %S" s)
  else
    let digits = String.sub s 0 num_len in
    let unit_ = String.sub s num_len (String.length s - num_len) in
    match (float_of_string_opt digits, unit_) with
    | None, _ -> Error (Printf.sprintf "bad duration %S" s)
    | Some v, "ns" -> Ok (int_of_float v)
    | Some v, "us" -> Ok (int_of_float (v *. 1e3))
    | Some v, "ms" -> Ok (int_of_float (v *. 1e6))
    | Some v, "s" -> Ok (int_of_float (v *. 1e9))
    | Some _, u -> Error (Printf.sprintf "bad duration unit %S (ns|us|ms|s)" u)

let parse_degrade_args args =
  let rec go loss jitter = function
    | [] -> Ok (Degrade { loss; jitter })
    | arg :: rest -> (
        match String.index_opt arg '=' with
        | None -> Error (Printf.sprintf "bad degrade argument %S" arg)
        | Some i -> (
            let key = String.sub arg 0 i in
            let value = String.sub arg (i + 1) (String.length arg - i - 1) in
            match key with
            | "loss" -> (
                match float_of_string_opt value with
                | Some l when l >= 0.0 && l < 1.0 -> go l jitter rest
                | Some _ | None ->
                    Error (Printf.sprintf "bad loss %S (want [0, 1))" value))
            | "jitter" -> (
                match parse_span value with
                | Ok j -> go loss j rest
                | Error e -> Error e)
            | _ -> Error (Printf.sprintf "unknown degrade key %S" key)))
  in
  go 0.0 0 args

let parse_line line =
  match
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> s <> "")
  with
  | [] -> Ok None
  | tok :: _ when String.length tok > 0 && tok.[0] = '#' -> Ok None
  | time :: target :: rest -> (
      match parse_span time with
      | Error e -> Error e
      | Ok after -> (
          let ev action = Ok (Some { after; target; action }) in
          match rest with
          | [ "down" ] -> ev Down
          | [ "up" ] -> ev Up
          | [ "crash" ] -> ev Crash
          | [ "restart" ] -> ev Restart
          | [ "flaky"; n ] -> (
              match int_of_string_opt n with
              | Some n when n > 0 -> ev (Flaky n)
              | Some _ | None -> Error (Printf.sprintf "bad flaky count %S" n))
          | "degrade" :: args -> (
              match parse_degrade_args args with
              | Ok a -> ev a
              | Error e -> Error e)
          | [] -> Error (Printf.sprintf "missing action for target %S" target)
          | verb :: _ -> Error (Printf.sprintf "unknown action %S" verb)))
  | [ only ] -> Error (Printf.sprintf "incomplete event %S" only)

let parse_script text =
  let lines = String.split_on_char '\n' text in
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse_line line with
        | Ok None -> go (n + 1) acc rest
        | Ok (Some e) -> go (n + 1) (e :: acc) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" n e))
  in
  go 1 [] lines

(* ---- the injector ---- *)

type applied = {
  at : Sim_time.t;
  event : event;
  outcome : (unit, string) result;
}

type injector = {
  engine : Engine.t;
  handlers : (string, action -> (unit, string) result) Hashtbl.t;
  mutable log : applied list; (* newest first *)
}

let create engine = { engine; handlers = Hashtbl.create 8; log = [] }

let register t ~target handler =
  if Hashtbl.mem t.handlers target then
    invalid_arg (Printf.sprintf "Fault.register: duplicate target %S" target);
  Hashtbl.replace t.handlers target handler

let targets t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.handlers [] |> List.sort compare

let action_verb = function
  | Down -> "down"
  | Up -> "up"
  | Degrade _ -> "degrade"
  | Flaky _ -> "flaky"
  | Crash -> "crash"
  | Restart -> "restart"

let fire t event =
  let outcome =
    match Hashtbl.find_opt t.handlers event.target with
    | None -> Error (Printf.sprintf "no such target %S" event.target)
    | Some handler -> (
        match handler event.action with
        | outcome -> outcome
        | exception Invalid_argument msg -> Error msg)
  in
  (* Every injection lands on the flight recorder's "fault" stream —
     the trigger (and root cause) a post-mortem pivots on. *)
  if Telemetry.Trace.enabled () then
    Telemetry.Trace.event
      ~level:
        (match outcome with
        | Ok () -> Telemetry.Trace.Warn
        | Error _ -> Telemetry.Trace.Error)
      ~ts_ns:(Sim_time.to_ns (Engine.now t.engine))
      ~corr:(Telemetry.Trace.corr_of_string event.target)
      ~detail:
        (Format.asprintf "%s %a%s" event.target pp_action event.action
           (match outcome with Ok () -> "" | Error e -> " FAILED: " ^ e))
      ~stream:"fault" (action_verb event.action);
  t.log <- { at = Engine.now t.engine; event; outcome } :: t.log

let schedule t events =
  List.iter
    (fun e -> Engine.schedule_after t.engine e.after (fun () -> fire t e))
    events

let run_script t text =
  match parse_script text with
  | Error _ as e -> e
  | Ok events ->
      schedule t events;
      Ok events

let applied t = List.rev t.log
let faults_injected t = List.length t.log

let pp_report fmt t =
  let log = applied t in
  Format.fprintf fmt "@[<v>fault injection report (%d events):@," (List.length log);
  List.iter
    (fun { at; event; outcome } ->
      Format.fprintf fmt "  [%a] %s %a: %s@," Sim_time.pp at event.target
        pp_action event.action
        (match outcome with Ok () -> "applied" | Error e -> "FAILED: " ^ e))
    log;
  Format.fprintf fmt "@]"
