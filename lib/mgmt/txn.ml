type entry =
  | Begin of string
  | Stage_start of string
  | Stage_done of string
  | Note of string
  | Rollback of string
  | Rolled_back
  | Committed

type record = { txn : string; seq : int; entry : entry }

type t = {
  mutable records : record list; (* newest first *)
  mutable next_seq : int;
  mutable crash_in : int; (* 0 = disarmed *)
}

exception Crashed

let create () = { records = []; next_seq = 1; crash_in = 0 }

let has_space s = String.exists (fun c -> c = ' ' || c = '\t' || c = '\n') s

let validate_token what s =
  if s = "" || has_space s then
    invalid_arg (Printf.sprintf "Txn: %s must be a non-empty token: %S" what s)

let validate_detail what s =
  if String.contains s '\n' then
    invalid_arg (Printf.sprintf "Txn: %s must be a single line" what)

let validate_entry = function
  | Begin d | Note d | Rollback d -> validate_detail "detail" d
  | Stage_start s | Stage_done s -> validate_token "stage" s
  | Rolled_back | Committed -> ()

let entry_kind = function
  | Begin _ -> "begin"
  | Stage_start _ -> "stage-start"
  | Stage_done _ -> "stage-done"
  | Note _ -> "note"
  | Rollback _ -> "rollback"
  | Rolled_back -> "rolled-back"
  | Committed -> "committed"

let entry_detail = function
  | Begin d | Note d | Rollback d -> d
  | Stage_start s | Stage_done s -> s
  | Rolled_back | Committed -> ""

let append t ~txn entry =
  validate_token "txn id" txn;
  validate_entry entry;
  let record = { txn; seq = t.next_seq; entry } in
  t.next_seq <- t.next_seq + 1;
  t.records <- record :: t.records;
  (* The event lands after the record is persisted and before any armed
     crash fires — mirroring what a real WAL writer would have managed
     to log, so a post-mortem of a crash sweep shows the record that
     made it to disk. *)
  if Telemetry.Trace.enabled () then
    Telemetry.Trace.event
      ~corr:(Telemetry.Trace.corr_of_string txn)
      ~detail:
        (match entry_detail entry with "" -> txn | d -> txn ^ " " ^ d)
      ~stream:"txn" (entry_kind entry);
  if t.crash_in > 0 then begin
    t.crash_in <- t.crash_in - 1;
    if t.crash_in = 0 then raise Crashed
  end;
  record

let arm_crash t ~after =
  if after < 0 then invalid_arg "Txn.arm_crash: negative count";
  t.crash_in <- after

let crash_armed t = t.crash_in > 0
let records t = List.rev t.records
let length t = List.length t.records
let records_of t ~txn = List.filter (fun r -> r.txn = txn) (records t)

let txns t =
  List.fold_left
    (fun acc r -> if List.mem r.txn acc then acc else acc @ [ r.txn ])
    [] (records t)

type resolution =
  | Fresh
  | Committed_
  | Rolled_back_ of string
  | Needs_rollback of string

let resolve t ~txn =
  let rs = records_of t ~txn in
  if rs = [] then Fresh
  else
    let reason =
      List.fold_left
        (fun acc r -> match r.entry with Rollback why -> Some why | _ -> acc)
        None rs
    in
    let terminal =
      List.fold_left
        (fun acc r ->
          match r.entry with
          | Committed -> Some `Committed
          | Rolled_back -> Some `Rolled_back
          | _ -> acc)
        None rs
    in
    match terminal with
    | Some `Committed -> Committed_
    | Some `Rolled_back ->
        Rolled_back_ (Option.value reason ~default:"rolled back")
    | None -> (
        match reason with
        | Some why -> Needs_rollback (Printf.sprintf "crash during rollback (%s)" why)
        | None -> (
            (* Mid-flight: name the furthest point the log reached. *)
            let where =
              List.fold_left
                (fun acc r ->
                  match r.entry with
                  | Begin _ -> "after begin"
                  | Stage_start s -> Printf.sprintf "during stage %s" s
                  | Stage_done s -> Printf.sprintf "after stage %s" s
                  | Note _ | Rollback _ | Rolled_back | Committed -> acc)
                "before begin" rs
            in
            Needs_rollback (Printf.sprintf "crash %s" where)))

let entry_to_string = function
  | Begin d -> "begin " ^ d
  | Stage_start s -> "stage-start " ^ s
  | Stage_done s -> "stage-done " ^ s
  | Note d -> "note " ^ d
  | Rollback d -> "rollback " ^ d
  | Rolled_back -> "rolled-back"
  | Committed -> "committed"

let record_to_string r =
  Printf.sprintf "txn %s %d %s" r.txn r.seq (entry_to_string r.entry)

let pp_resolution ppf = function
  | Fresh -> Format.pp_print_string ppf "fresh"
  | Committed_ -> Format.pp_print_string ppf "committed"
  | Rolled_back_ why -> Format.fprintf ppf "rolled back (%s)" why
  | Needs_rollback why -> Format.fprintf ppf "needs rollback (%s)" why

let to_string t =
  String.concat "" (List.map (fun r -> record_to_string r ^ "\n") (records t))

let parse_line line =
  (* "txn <id> <seq> <kind> [rest…]" *)
  let line = String.trim line in
  let split_word s =
    match String.index_opt s ' ' with
    | None -> (s, "")
    | Some i ->
        ( String.sub s 0 i,
          String.trim (String.sub s (i + 1) (String.length s - i - 1)) )
  in
  let kw, rest = split_word line in
  if kw <> "txn" then Error "expected 'txn'"
  else
    let txn, rest = split_word rest in
    let seq_s, rest = split_word rest in
    let kind, detail = split_word rest in
    if txn = "" then Error "missing transaction id"
    else
      match int_of_string_opt seq_s with
      | None -> Error (Printf.sprintf "bad sequence number %S" seq_s)
      | Some seq -> (
          let need_token what =
            if detail = "" || has_space detail then
              Error (Printf.sprintf "%s must be a single token" what)
            else Ok detail
          in
          let no_detail entry =
            if detail = "" then Ok entry
            else Error (Printf.sprintf "unexpected detail after %S" kind)
          in
          let entry =
            match kind with
            | "begin" -> Ok (Begin detail)
            | "stage-start" -> Result.map (fun s -> Stage_start s) (need_token "stage")
            | "stage-done" -> Result.map (fun s -> Stage_done s) (need_token "stage")
            | "note" -> Ok (Note detail)
            | "rollback" -> Ok (Rollback detail)
            | "rolled-back" -> no_detail Rolled_back
            | "committed" -> no_detail Committed
            | k -> Error (Printf.sprintf "unknown record kind %S" k)
          in
          Result.map (fun entry -> { txn; seq; entry }) entry)

let of_string text =
  let lines = String.split_on_char '\n' text in
  let rec go acc last_seq n = function
    | [] ->
        let records = List.rev acc in
        Ok
          {
            records = acc;
            next_seq = (match records with [] -> 1 | _ -> last_seq + 1);
            crash_in = 0;
          }
    | line :: rest ->
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' then go acc last_seq (n + 1) rest
        else (
          match parse_line trimmed with
          | Error e -> Error (Printf.sprintf "line %d: %s" n e)
          | Ok r ->
              if r.seq <= last_seq then
                Error
                  (Printf.sprintf "line %d: sequence %d not increasing" n r.seq)
              else go (r :: acc) r.seq (n + 1) rest)
  in
  go [] 0 1 lines

let save t ~path =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string t))
