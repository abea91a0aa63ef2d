(** Retry-with-exponential-backoff for management-plane operations.

    SNMP and NAPALM calls against real devices fail transiently all the
    time (TCP resets, busy control planes, dropped UDP); a migration tool
    that aborts a provisioning run on the first hiccup is unusable.  This
    combinator gives every management call site one shared, deterministic
    policy: try, back off exponentially, give up after [max_attempts]
    with an error that says so.

    Each retry increments the [retries_total{op="…"}] counter in the
    telemetry registry, so chaos runs can assert recovery actually
    exercised the retry path.

    Two refinements built for fleet migrations:

    - {e full jitter}: a policy with [jitter = true] draws every backoff
      uniformly from [\[0, raw_delay\]] using a caller-supplied seeded
      {!Simnet.Rng.t}, so N devices retrying against the same overloaded
      management network don't synchronise their retry storms.  Without
      an rng the raw (unjittered) delay is used, keeping old call sites
      byte-identical.
    - {e deadline budgets}: a {!budget} caps the {e total} backoff a
      whole multi-operation sequence may accumulate.  When the next
      delay would blow the budget the retry loop stops early with a
      [deadline exceeded] error ({!is_deadline_error}), distinct from
      the per-operation "gave up after N attempts" transient give-up,
      and increments [deadline_exceeded_total{op="…"}]. *)

type policy = {
  max_attempts : int;          (** total tries, >= 1 *)
  base_delay : Simnet.Sim_time.span;  (** delay before attempt 2 *)
  multiplier : float;          (** backoff growth factor, >= 1 *)
  max_delay : Simnet.Sim_time.span;   (** backoff cap *)
  jitter : bool;               (** full jitter: delay ~ U[0, raw] *)
}

val policy :
  ?max_attempts:int -> ?base_delay:Simnet.Sim_time.span ->
  ?multiplier:float -> ?max_delay:Simnet.Sim_time.span ->
  ?jitter:bool -> unit -> policy
(** Defaults: 3 attempts, 10 ms base, x2 growth, 1 s cap, no jitter.
    @raise Invalid_argument on nonsensical values. *)

val default : policy

val delay_before_attempt :
  ?rng:Simnet.Rng.t -> policy -> attempt:int -> Simnet.Sim_time.span
(** Backoff inserted before the given 1-based attempt (0 for the first).
    Without jitter the schedule is a pure function of the policy alone;
    with [jitter = true] and an [rng] each delay is drawn uniformly from
    [\[0, raw\]] — equal seeds give equal schedules, so jittered runs
    are still reproducible. *)

val backoff_schedule : ?rng:Simnet.Rng.t -> policy -> Simnet.Sim_time.span list
(** The full delay sequence, i.e. delays before attempts 2..max. *)

(** {2 Deadline budgets} *)

type budget
(** A mutable total-backoff allowance shared across every retried
    operation of one logical task (e.g. all of [configure_device]'s
    load/commit/verify/rollback retries). *)

val budget : Simnet.Sim_time.span -> budget
(** @raise Invalid_argument if the span is negative. *)

val budget_exhausted : budget -> bool
(** True once a retry loop has refused to continue under this budget. *)

val is_deadline_error : string -> bool
(** Recognise the stable ["deadline exceeded"] prefix that budget
    exhaustion produces — the contract for telling a blown deadline
    apart from a transient give-up. *)

val run :
  ?policy:policy -> ?registry:Telemetry.Registry.t -> ?op:string ->
  ?corr:int -> ?rng:Simnet.Rng.t -> ?budget:budget ->
  ?on_retry:(attempt:int -> delay:Simnet.Sim_time.span -> string -> unit) ->
  (unit -> ('a, string) result) -> ('a, string) result
(** Synchronous retries: call [f] until it succeeds or [max_attempts] is
    reached.  Simulated management operations complete instantly, so the
    backoff is not waited out here — it is reported to [on_retry] (and
    is exactly what {!run_async} would wait).  The terminal error is
    annotated with the attempt count.  [op] labels the
    [retries_total] counter (default registry unless [registry]).

    [rng] feeds the policy's jitter; [budget] charges every backoff
    delay against a shared allowance and fails fast with a
    ["deadline exceeded…"] error when the next delay would exceed it.

    When a {!Telemetry.Trace} recorder is installed, every retry,
    deadline exhaustion and give-up also lands on the ["retry"] event
    stream; [corr] sets the correlation id (default: derived from
    [op]).  The synchronous path has no engine, so those events are
    stamped by the recorder's clock. *)

val run_async :
  Simnet.Engine.t -> ?policy:policy -> ?registry:Telemetry.Registry.t ->
  ?op:string -> ?corr:int -> ?rng:Simnet.Rng.t -> ?budget:budget ->
  ?on_retry:(attempt:int -> delay:Simnet.Sim_time.span -> string -> unit) ->
  (unit -> ('a, string) result) -> on_done:(('a, string) result -> unit) ->
  unit
(** Like {!run} but the backoff delays elapse in sim time on [engine];
    [on_done] fires with the final result.  The {!Harmless.Failover}
    watchdog uses this so failed failover activations retry without
    blocking the event loop. *)
