open Simnet

type policy = {
  max_attempts : int;
  base_delay : Sim_time.span;
  multiplier : float;
  max_delay : Sim_time.span;
  jitter : bool;
}

let policy ?(max_attempts = 3) ?(base_delay = Sim_time.ms 10)
    ?(multiplier = 2.0) ?(max_delay = Sim_time.s 1) ?(jitter = false) () =
  if max_attempts < 1 then invalid_arg "Retry.policy: max_attempts < 1";
  if base_delay < 0 then invalid_arg "Retry.policy: negative base_delay";
  if multiplier < 1.0 then invalid_arg "Retry.policy: multiplier < 1";
  if max_delay < base_delay then invalid_arg "Retry.policy: max_delay < base_delay";
  { max_attempts; base_delay; multiplier; max_delay; jitter }

let default = policy ()

let raw_delay_before_attempt p ~attempt =
  if attempt <= 1 then 0
  else
    let raw =
      float_of_int p.base_delay *. (p.multiplier ** float_of_int (attempt - 2))
    in
    min p.max_delay (int_of_float raw)

let delay_before_attempt ?rng p ~attempt =
  let raw = raw_delay_before_attempt p ~attempt in
  match rng with
  | Some rng when p.jitter && raw > 0 ->
      (* Full jitter (AWS-style): uniform in [0, raw].  Concurrent
         retriers with split rng streams spread out instead of beating
         in lockstep. *)
      Rng.int_in rng 0 raw
  | Some _ | None -> raw

let backoff_schedule ?rng p =
  List.init (p.max_attempts - 1) (fun i ->
      delay_before_attempt ?rng p ~attempt:(i + 2))

(* ---- deadline budgets ---- *)

type budget = {
  limit : Sim_time.span;
  mutable spent : Sim_time.span;
  mutable exhausted : bool;
}

let budget limit =
  if limit < 0 then invalid_arg "Retry.budget: negative deadline";
  { limit; spent = 0; exhausted = false }

let budget_exhausted b = b.exhausted

let deadline_prefix = "deadline exceeded"

let is_deadline_error msg =
  String.length msg >= String.length deadline_prefix
  && String.sub msg 0 (String.length deadline_prefix) = deadline_prefix

let count ?registry ~op name ~help =
  Telemetry.Registry.Counter.inc
    (Telemetry.Registry.Counter.v ?registry ~help ~labels:[ ("op", op) ] name)

let count_retry ?registry ~op () =
  count ?registry ~op "retries_total"
    ~help:"operations retried after a transient failure"

let count_deadline ?registry ~op () =
  count ?registry ~op "deadline_exceeded_total"
    ~help:"retry sequences aborted by a blown total-deadline budget"

(* Charge [delay] against [budget]; [Error] (with the budget marked
   exhausted) when it does not fit. *)
let charge budget ~delay =
  match budget with
  | None -> Ok ()
  | Some b ->
      if b.spent + delay > b.limit then begin
        b.exhausted <- true;
        Error ()
      end
      else begin
        b.spent <- b.spent + delay;
        Ok ()
      end

let deadline_error ?registry ~op ~attempts b last_error =
  count_deadline ?registry ~op ();
  Printf.sprintf
    "%s: %s still failing after %d attempt(s) with %s spent of a %s budget: %s"
    deadline_prefix op attempts
    (Format.asprintf "%a" Sim_time.pp_span b.spent)
    (Format.asprintf "%a" Sim_time.pp_span b.limit)
    last_error

let give_up_error policy ~attempts e =
  if policy.max_attempts = 1 then e
  else Printf.sprintf "%s (gave up after %d attempts)" e attempts

(* Flight-recorder events.  [?ts_ns] is [None] on the synchronous path
   (no engine in reach) — the recorder falls back to the process-wide
   clock a recording rig installs.  Guarded at every call site. *)
let event ?ts_ns ?corr ~op ?level ~detail name =
  let corr =
    match corr with
    | Some c -> c
    | None -> Telemetry.Trace.corr_of_string ("retry:" ^ op)
  in
  Telemetry.Trace.event ?level ?ts_ns ~corr ~detail ~stream:"retry" name

let run ?(policy = default) ?registry ?(op = "op") ?corr ?rng ?budget
    ?(on_retry = fun ~attempt:_ ~delay:_ _ -> ()) f =
  let rec attempt n =
    match f () with
    | Ok _ as ok -> ok
    | Error e when n >= policy.max_attempts ->
        if Telemetry.Trace.enabled () then
          event ?corr ~op ~level:Telemetry.Trace.Warn
            ~detail:(Printf.sprintf "%s after %d attempt(s)" op n)
            "gave_up";
        Error (give_up_error policy ~attempts:n e)
    | Error e -> (
        let delay = delay_before_attempt ?rng policy ~attempt:(n + 1) in
        match charge budget ~delay with
        | Error () ->
            if Telemetry.Trace.enabled () then
              event ?corr ~op ~level:Telemetry.Trace.Warn
                ~detail:(Printf.sprintf "%s after %d attempt(s)" op n)
                "deadline";
            Error (deadline_error ?registry ~op ~attempts:n (Option.get budget) e)
        | Ok () ->
            count_retry ?registry ~op ();
            if Telemetry.Trace.enabled () then
              event ?corr ~op ~level:Telemetry.Trace.Debug
                ~detail:(Printf.sprintf "%s attempt=%d delay=%dns" op n delay)
                "retry";
            on_retry ~attempt:n ~delay e;
            attempt (n + 1))
  in
  attempt 1

let run_async engine ?(policy = default) ?registry ?(op = "op") ?corr ?rng
    ?budget ?(on_retry = fun ~attempt:_ ~delay:_ _ -> ()) f ~on_done =
  let now () = Sim_time.to_ns (Engine.now engine) in
  let rec attempt n () =
    match f () with
    | Ok _ as ok -> on_done ok
    | Error e when n >= policy.max_attempts ->
        if Telemetry.Trace.enabled () then
          event ~ts_ns:(now ()) ?corr ~op ~level:Telemetry.Trace.Warn
            ~detail:(Printf.sprintf "%s after %d attempt(s)" op n)
            "gave_up";
        on_done (Error (give_up_error policy ~attempts:n e))
    | Error e -> (
        let delay = delay_before_attempt ?rng policy ~attempt:(n + 1) in
        match charge budget ~delay with
        | Error () ->
            if Telemetry.Trace.enabled () then
              event ~ts_ns:(now ()) ?corr ~op ~level:Telemetry.Trace.Warn
                ~detail:(Printf.sprintf "%s after %d attempt(s)" op n)
                "deadline";
            on_done
              (Error
                 (deadline_error ?registry ~op ~attempts:n (Option.get budget) e))
        | Ok () ->
            count_retry ?registry ~op ();
            if Telemetry.Trace.enabled () then
              event ~ts_ns:(now ()) ?corr ~op ~level:Telemetry.Trace.Debug
                ~detail:(Printf.sprintf "%s attempt=%d delay=%dns" op n delay)
                "retry";
            on_retry ~attempt:n ~delay e;
            Engine.schedule_after engine delay (attempt (n + 1)))
  in
  attempt 1 ()
