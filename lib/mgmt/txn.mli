(** A text write-ahead log for transactional device migrations.

    Every step of a staged cutover journals a record {e before} acting,
    so a manager crash at any step boundary leaves a prefix of the log
    from which a fresh manager can recover to a consistent state:
    either the transaction's effects are fully applied (a [committed]
    record exists) or they must be fully undone (anything less).  The
    log is plain text, one record per line, and round-trips through
    {!to_string}/{!of_string} so recovery can replay exactly what a
    crashed process left on disk.

    Record grammar (fields are whitespace-separated; the trailing
    free-text field may contain spaces):

    {v
    txn <id> <seq> begin <detail…>
    txn <id> <seq> stage-start <stage>
    txn <id> <seq> stage-done <stage>
    txn <id> <seq> note <detail…>
    txn <id> <seq> rollback <reason…>
    txn <id> <seq> rolled-back
    txn <id> <seq> committed
    v}

    Crash injection for tests: {!arm_crash} makes the [n]-th subsequent
    append raise {!Crashed} {e after} persisting the record — the
    tightest model of "the manager died right at a step boundary". *)

type entry =
  | Begin of string        (** transaction opened; detail encodes the plan *)
  | Stage_start of string  (** a named stage is about to run *)
  | Stage_done of string   (** that stage finished cleanly *)
  | Note of string         (** non-structural breadcrumb *)
  | Rollback of string     (** rollback decided, with the reason *)
  | Rolled_back            (** rollback finished; terminal *)
  | Committed              (** transaction finished; terminal *)

type record = { txn : string; seq : int; entry : entry }

type t

exception Crashed
(** Raised by {!append} when an armed crash fires. *)

val create : unit -> t

val append : t -> txn:string -> entry -> record
(** Journal one record, assigning the next sequence number.
    @raise Crashed when an armed crash point is reached (the record is
    already persisted — the "process" dies on the way back).
    @raise Invalid_argument if [txn] contains whitespace or is empty. *)

val arm_crash : t -> after:int -> unit
(** Make the [after]-th subsequent {!append} raise {!Crashed} after
    persisting its record; [after = 0] disarms.
    @raise Invalid_argument if [after < 0]. *)

val crash_armed : t -> bool

val records : t -> record list
(** Oldest first. *)

val length : t -> int

val records_of : t -> txn:string -> record list

val txns : t -> string list
(** Distinct transaction ids, in first-appearance order. *)

(** What a replay of the log says must happen to a transaction. *)
type resolution =
  | Fresh                  (** no records — nothing ever started *)
  | Committed_             (** a [committed] record exists; effects stay *)
  | Rolled_back_ of string (** rollback ran to completion *)
  | Needs_rollback of string
      (** the log stops mid-flight (or mid-rollback): undo, then journal
          [rolled-back].  The string says where it stopped. *)

val resolve : t -> txn:string -> resolution
(** Pure function of the record sequence; idempotent replay builds on
    this: resolving an already-terminal log changes nothing. *)

val pp_resolution : Format.formatter -> resolution -> unit

val to_string : t -> string
(** One record per line, parseable by {!of_string}. *)

val of_string : string -> (t, string) result
(** Parse a serialized log ([#] comments and blank lines ignored).
    Errors name the offending line.  Sequence numbers are validated to
    be strictly increasing. *)

val save : t -> path:string -> unit
(** @raise Sys_error on I/O failure. *)
