type input = Series of Timeseries.t | Sampled of (int -> float option)

type condition =
  | Above of float
  | Below of float
  | Rate_above of { per_second : float; window : int }
  | Rate_below of { per_second : float; window : int }
  | Absent of { window : int }

type state = Ok | Pending of { since_ns : int } | Firing of { since_ns : int }

type transition = {
  at_ns : int;
  rule : string;
  from_state : string;
  to_state : string;
  value : float option;
}

type rule = {
  rule_name : string;
  input : input;
  condition : condition;
  for_ : int;
  help : string;
  mutable state : state;
}

type t = {
  mutable rules : rule list;  (* registration order *)
  mutable log : transition list;  (* newest first *)
  mutable evals : int;
  mutable last_eval_ns : int;
}

let create () = { rules = []; log = []; evals = 0; last_eval_ns = -1 }

let add_rule t ~name ?(for_ = 0) ?(help = "") input condition =
  if for_ < 0 then invalid_arg "Alert.add_rule: negative for_";
  if List.exists (fun r -> String.equal r.rule_name name) t.rules then
    invalid_arg (Printf.sprintf "Alert.add_rule: duplicate rule %S" name);
  (match (input, condition) with
  | Sampled _, (Rate_above _ | Rate_below _) ->
      invalid_arg "Alert.add_rule: rate conditions need a Series input"
  | _ -> ());
  t.rules <-
    t.rules @ [ { rule_name = name; input; condition; for_; help; state = Ok } ]

(* The observed value a condition judges (and the log records). *)
let observe rule ~now_ns =
  match rule.input with
  | Sampled f -> f now_ns
  | Series s -> (
      match rule.condition with
      | Above _ | Below _ | Absent _ ->
          Option.map snd (Timeseries.last s)
      | Rate_above { window; _ } | Rate_below { window; _ } ->
          Timeseries.rate_over s ~now_ns ~window)

let condition_holds rule ~now_ns value =
  match rule.condition with
  | Above threshold -> ( match value with Some v -> v > threshold | None -> false)
  | Below threshold -> ( match value with Some v -> v < threshold | None -> false)
  | Rate_above { per_second; _ } -> (
      match value with Some v -> v > per_second | None -> false)
  | Rate_below { per_second; _ } -> (
      match value with Some v -> v < per_second | None -> false)
  | Absent { window } -> (
      match rule.input with
      | Sampled _ -> Option.is_none value
      | Series s -> (
          match Timeseries.newest_age s ~now_ns with
          | None -> true
          | Some age -> age > window))

let state_name = function
  | Ok -> "ok"
  | Pending _ -> "pending"
  | Firing _ -> "firing"

let transition t rule ~now_ns ~value next =
  if state_name rule.state <> state_name next then begin
    t.log <-
      {
        at_ns = now_ns;
        rule = rule.rule_name;
        from_state = state_name rule.state;
        to_state = state_name next;
        value;
      }
      :: t.log;
    if Trace.enabled () then
      Trace.event
        ~level:
          (match next with
          | Firing _ -> Trace.Error
          | Pending _ -> Trace.Warn
          | Ok -> Trace.Info)
        ~ts_ns:now_ns
        ~corr:(Trace.corr_of_string rule.rule_name)
        ~detail:
          (match value with
          | None -> rule.rule_name
          | Some v -> Printf.sprintf "%s value=%g" rule.rule_name v)
        ~stream:"alert" (state_name next)
  end;
  rule.state <- next

let eval_rule t rule ~now_ns =
  let value = observe rule ~now_ns in
  let holds = condition_holds rule ~now_ns value in
  match (rule.state, holds) with
  | Ok, true ->
      if rule.for_ = 0 then
        transition t rule ~now_ns ~value (Firing { since_ns = now_ns })
      else transition t rule ~now_ns ~value (Pending { since_ns = now_ns })
  | Pending { since_ns }, true ->
      if now_ns - since_ns >= rule.for_ then
        transition t rule ~now_ns ~value (Firing { since_ns = now_ns })
  | Firing _, true -> ()
  | Ok, false -> ()
  | (Pending _ | Firing _), false -> transition t rule ~now_ns ~value Ok

let eval t ~now_ns =
  if now_ns < t.last_eval_ns then
    invalid_arg "Alert.eval: clock went backwards";
  t.last_eval_ns <- now_ns;
  t.evals <- t.evals + 1;
  List.iter (fun rule -> eval_rule t rule ~now_ns) t.rules

let rules t = List.map (fun r -> r.rule_name) t.rules

let find t name =
  match List.find_opt (fun r -> String.equal r.rule_name name) t.rules with
  | Some r -> r
  | None -> raise Not_found

let state t name = (find t name).state

let firing t =
  List.filter_map
    (fun r -> match r.state with Firing _ -> Some r.rule_name | _ -> None)
    t.rules

let log t = List.rev t.log
let evaluations t = t.evals

let breaches t name =
  ignore (find t name);
  (* oldest-first transitions; collect firing-entry / firing-exit pairs *)
  let windows, open_ =
    List.fold_left
      (fun (done_, open_) tr ->
        if not (String.equal tr.rule name) then (done_, open_)
        else
          match (open_, String.equal tr.to_state "firing") with
          | None, true -> (done_, Some tr.at_ns)
          | Some started, false when String.equal tr.from_state "firing" ->
              ((started, Some tr.at_ns) :: done_, None)
          | open_, _ -> (done_, open_))
      ([], None) (List.rev t.log)
  in
  let windows =
    match open_ with
    | Some started -> (started, None) :: windows
    | None -> windows
  in
  List.rev windows

let pp_time ppf ns =
  if ns >= 1_000_000 then Format.fprintf ppf "%.3fms" (float_of_int ns /. 1e6)
  else if ns >= 1_000 then Format.fprintf ppf "%.3fus" (float_of_int ns /. 1e3)
  else Format.fprintf ppf "%dns" ns

let pp_state ppf = function
  | Ok -> Format.pp_print_string ppf "ok"
  | Pending { since_ns } ->
      Format.fprintf ppf "pending since %a" pp_time since_ns
  | Firing { since_ns } -> Format.fprintf ppf "FIRING since %a" pp_time since_ns

let pp_transition ppf tr =
  Format.fprintf ppf "%a  %-24s %s -> %s%s" pp_time tr.at_ns tr.rule
    tr.from_state tr.to_state
    (match tr.value with
    | None -> ""
    | Some v -> Printf.sprintf "  (value %g)" v)

let pp ppf t =
  Format.pp_open_vbox ppf 0;
  List.iter
    (fun r -> Format.fprintf ppf "%-24s %a@," r.rule_name pp_state r.state)
    t.rules;
  Format.pp_close_box ppf ()
