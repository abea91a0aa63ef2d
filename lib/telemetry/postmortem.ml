type snapshot = {
  scenario : string;
  seed : int;
  captured_ns : int;
  window_start_ns : int;
  triggers : Trace.event list;
  events : Trace.event list;
  spans : Span.t list;
  series : (string * (int * float) list) list;
}

let schema = "harmless-postmortem/2"

let default_trigger (e : Trace.event) =
  match (e.stream, e.name) with
  | "fault", _ -> true
  | "alert", "firing" -> true
  | "migration", ("rollback" | "abort") -> true
  | "fleet", "abort" -> true
  | _ -> false

let is_token s =
  s <> ""
  && not (String.exists (fun c -> c = ' ' || c = '\t' || c = '\n') s)

let capture ?(trigger = default_trigger) ?(pre_window_ns = 5_000_000) ?(spans = [])
    ?(series = []) ~scenario ~seed ~captured_ns recorder =
  if not (is_token scenario) then
    invalid_arg "Postmortem.capture: scenario must be a non-empty token";
  let all = Trace.events recorder in
  match List.filter trigger all with
  | [] -> None
  | first :: _ as triggers ->
      let window_start_ns = max 0 (first.Trace.ts_ns - pre_window_ns) in
      let events =
        List.filter (fun (e : Trace.event) -> e.ts_ns >= window_start_ns) all
      in
      let corrs =
        List.fold_left
          (fun acc (e : Trace.event) ->
            if e.corr = 0 then acc else e.corr :: acc)
          [] events
      in
      let spans =
        List.filter (fun (s : Span.t) -> List.mem s.trace_key corrs) spans
      in
      let series =
        List.map
          (fun ts ->
            ( Timeseries.name ts,
              List.filter
                (fun (t, _) -> t >= window_start_ns && t <= captured_ns)
                (Timeseries.to_list ts) ))
          series
      in
      Some
        { scenario; seed; captured_ns; window_start_ns; triggers; events; spans; series }

(* ---- serialization ---- *)

let span_to_string (s : Span.t) =
  Printf.sprintf "span %d %s %08x %d %d %d %s %s%s" s.id
    (match s.parent with None -> "-" | Some p -> string_of_int p)
    s.trace_key s.begin_ns s.end_ns s.cycles s.name
    (if s.component = "" then "-" else s.component)
    (if s.detail = "" then "" else " " ^ s.detail)

let split_word s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let span_of_string line =
  let kw, rest = split_word line in
  if kw <> "span" then Error "expected 'span'"
  else
    let id_s, rest = split_word rest in
    let parent_s, rest = split_word rest in
    let key_s, rest = split_word rest in
    let b_s, rest = split_word rest in
    let e_s, rest = split_word rest in
    let cy_s, rest = split_word rest in
    let name, rest = split_word rest in
    let component, detail = split_word rest in
    let parent =
      if parent_s = "-" then Some None
      else Option.map Option.some (int_of_string_opt parent_s)
    in
    match
      ( int_of_string_opt id_s,
        parent,
        int_of_string_opt ("0x" ^ key_s),
        int_of_string_opt b_s,
        int_of_string_opt e_s,
        int_of_string_opt cy_s )
    with
    | ( Some id,
        Some parent,
        Some trace_key,
        Some begin_ns,
        Some end_ns,
        Some cycles )
      when name <> "" ->
        Ok
          {
            Span.id;
            parent;
            trace_key;
            name;
            component = (if component = "-" then "" else component);
            begin_ns;
            end_ns;
            cycles;
            detail;
          }
    | _ -> Error (Printf.sprintf "malformed span line %S" line)

let to_string snap =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "%s\n" schema;
  add "scenario %s\n" snap.scenario;
  add "seed %d\n" snap.seed;
  add "captured %d\n" snap.captured_ns;
  add "window %d %d\n" snap.window_start_ns snap.captured_ns;
  add "triggers %d\n" (List.length snap.triggers);
  List.iter (fun e -> add "%s\n" (Trace.event_to_string e)) snap.triggers;
  add "events %d\n" (List.length snap.events);
  List.iter (fun e -> add "%s\n" (Trace.event_to_string e)) snap.events;
  add "spans %d\n" (List.length snap.spans);
  List.iter (fun s -> add "%s\n" (span_to_string s)) snap.spans;
  add "series %d\n" (List.length snap.series);
  List.iter
    (fun (name, points) ->
      add "ts %s %d\n" name (List.length points);
      List.iter
        (fun (t, v) -> add "point %d %s\n" t (Json.float_repr v))
        points)
    snap.series;
  Buffer.contents buf

let of_string text =
  let ( let* ) = Result.bind in
  let lines = ref (String.split_on_char '\n' text) in
  let next () =
    match !lines with
    | [] -> Error "unexpected end of snapshot"
    | l :: rest ->
        lines := rest;
        Ok l
  in
  let field key =
    let* line = next () in
    let k, v = split_word line in
    if k = key then Ok v
    else Error (Printf.sprintf "expected %S, got %S" key line)
  in
  let int_field key =
    let* v = field key in
    match int_of_string_opt v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "field %s: not an int: %S" key v)
  in
  let rec collect n parse acc =
    if n = 0 then Ok (List.rev acc)
    else
      let* line = next () in
      let* x = parse line in
      collect (n - 1) parse (x :: acc)
  in
  let* header = next () in
  if String.trim header <> schema then
    Error (Printf.sprintf "not a %s snapshot: %S" schema header)
  else
    let* scenario = field "scenario" in
    let* seed = int_field "seed" in
    let* captured_ns = int_field "captured" in
    let* window = field "window" in
    let* window_start_ns =
      match int_of_string_opt (fst (split_word window)) with
      | Some n -> Ok n
      | None -> Error "malformed window line"
    in
    let* n_triggers = int_field "triggers" in
    let* triggers = collect n_triggers Trace.event_of_string [] in
    let* n_events = int_field "events" in
    let* events = collect n_events Trace.event_of_string [] in
    let* n_spans = int_field "spans" in
    let* spans = collect n_spans span_of_string [] in
    let* n_series = int_field "series" in
    let parse_series () =
      let* line = next () in
      let kw, rest = split_word line in
      if kw <> "ts" then Error (Printf.sprintf "expected 'ts', got %S" line)
      else
        let name, count_s = split_word rest in
        match int_of_string_opt count_s with
        | None -> Error (Printf.sprintf "malformed series header %S" line)
        | Some count ->
            let* points =
              collect count
                (fun l ->
                  let kw, rest = split_word l in
                  let t_s, v_s = split_word rest in
                  match
                    (kw, int_of_string_opt t_s, float_of_string_opt v_s)
                  with
                  | "point", Some t, Some v -> Ok (t, v)
                  | _ -> Error (Printf.sprintf "malformed point line %S" l))
                []
            in
            Ok (name, points)
    in
    let rec collect_series n acc =
      if n = 0 then Ok (List.rev acc)
      else
        let* s = parse_series () in
        collect_series (n - 1) (s :: acc)
    in
    let* series = collect_series n_series [] in
    Ok
      { scenario; seed; captured_ns; window_start_ns; triggers; events; spans; series }

let save snap ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string snap))

let load ~path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      of_string text

let event_json (e : Trace.event) =
  Json.Obj
    [
      ("seq", Json.Int e.seq);
      ("ts_ns", Json.Int e.ts_ns);
      ("level", Json.Str (Trace.level_name e.level));
      ("stream", Json.Str e.stream);
      ("name", Json.Str e.name);
      ("corr", Json.Str (Printf.sprintf "%08x" e.corr));
      ("detail", Json.Str e.detail);
    ]

let span_json (s : Span.t) =
  Json.Obj
    [
      ("id", Json.Int s.id);
      ("parent", match s.parent with None -> Json.Null | Some p -> Json.Int p);
      ("trace_key", Json.Str (Printf.sprintf "%08x" s.trace_key));
      ("name", Json.Str s.name);
      ("component", Json.Str s.component);
      ("begin_ns", Json.Int s.begin_ns);
      ("end_ns", Json.Int s.end_ns);
      ("cycles", Json.Int s.cycles);
    ]

let to_json snap =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("scenario", Json.Str snap.scenario);
      ("seed", Json.Int snap.seed);
      ("captured_ns", Json.Int snap.captured_ns);
      ("window_start_ns", Json.Int snap.window_start_ns);
      ("triggers", Json.Arr (List.map event_json snap.triggers));
      ("events", Json.Arr (List.map event_json snap.events));
      ("spans", Json.Arr (List.map span_json snap.spans));
      ( "series",
        Json.Arr
          (List.map
             (fun (name, points) ->
               Json.Obj
                 [
                   ("name", Json.Str name);
                   ( "points",
                     Json.Arr
                       (List.map
                          (fun (t, v) ->
                            Json.Arr [ Json.Int t; Json.Float v ])
                          points) );
                 ])
             snap.series) );
    ]

(* ---- causal timeline ---- *)

type timeline = {
  root_cause : Trace.event option;
  steps : Trace.event list;
}

(* A step earns a place in the causal chain when it marks a decision
   or a state change an operator would act on — fault injections,
   alerts going firing, rollbacks/aborts/deadline exhaustion, and
   anything logged at Error. *)
let significant (e : Trace.event) =
  match (e.stream, e.name, e.level) with
  | "fault", _, _ -> true
  | "alert", "firing", _ -> true
  | _, ("rollback" | "abort" | "gave_up" | "deadline"), _ -> true
  | _, _, Trace.Error -> true
  | _ -> false

let analyze snap =
  let root_cause =
    List.find_opt (fun (e : Trace.event) -> e.stream = "fault") snap.events
  in
  { root_cause; steps = List.filter significant snap.events }

let step_label (e : Trace.event) =
  let subject =
    match fst (split_word e.detail) with "" -> None | tok -> Some tok
  in
  Printf.sprintf "%s.%s%s@%s" e.stream e.name
    (match subject with None -> "" | Some s -> " " ^ s)
    (Format.asprintf "%a" Trace.pp_time e.ts_ns)

let render snap =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let time ns = Format.asprintf "%a" Trace.pp_time ns in
  add "post-mortem (%s): scenario %s, seed %d, captured @%s\n" schema
    snap.scenario snap.seed (time snap.captured_ns);
  add "window: %s .. %s — %d event(s), %d trigger(s), %d span(s), %d series\n"
    (time snap.window_start_ns) (time snap.captured_ns)
    (List.length snap.events)
    (List.length snap.triggers)
    (List.length snap.spans)
    (List.length snap.series);
  let tl = analyze snap in
  (match tl.root_cause with
  | Some e ->
      add "root cause: %s %s @%s%s\n" e.stream e.name (time e.ts_ns)
        (if e.detail = "" then "" else " — " ^ e.detail)
  | None -> add "root cause: none identified (no fault-stream event in window)\n");
  (match tl.steps with
  | [] -> add "timeline: empty\n"
  | steps ->
      add "timeline: %s\n" (String.concat " -> " (List.map step_label steps)));
  add "\nevents:\n";
  List.iter
    (fun e -> add "  %s\n" (Format.asprintf "%a" Trace.pp_event e))
    snap.events;
  if snap.spans <> [] then begin
    add "\ncorrelated spans:\n";
    List.iter
      (fun (s : Span.t) ->
        add "  [%08x] %-24s %s .. %s (%s)%s\n" s.trace_key
          (if s.component = "" then s.name else s.component ^ "/" ^ s.name)
          (time s.begin_ns) (time s.end_ns)
          (time (Span.duration_ns s))
          (if s.detail = "" then "" else "  " ^ s.detail))
      snap.spans
  end;
  List.iter
    (fun (name, points) ->
      add "\nseries %s: %d point(s)" name (List.length points);
      (match (points, List.rev points) with
      | (t0, v0) :: _, (t1, v1) :: _ ->
          add ", %s=%s .. %s=%s" (time t0) (Json.float_repr v0) (time t1)
            (Json.float_repr v1)
      | _ -> ());
      add "\n")
    snap.series;
  Buffer.contents buf
