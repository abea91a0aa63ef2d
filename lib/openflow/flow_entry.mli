(** One flow-table entry: priority, match, instructions, counters and
    timeouts.

    The openflow library is clock-agnostic: times enter as plain
    nanosecond integers ([now_ns]) supplied by whoever owns the clock. *)

type instruction =
  | Apply_actions of Of_action.t list
      (** executed immediately, in order *)
  | Write_actions of Of_action.t list
      (** merged into the action set, executed at pipeline end *)
  | Clear_actions
  | Goto_table of int
  | Meter of int
      (** police the packet through a {!Meter_table} band first; a packet
          the meter drops stops the pipeline with no outputs *)

type t = {
  priority : int;
  match_ : Of_match.t;
  instructions : instruction list;
  cookie : int64;
  idle_timeout_s : int option;  (** [None] = permanent *)
  hard_timeout_s : int option;
  mutable packets : int;
  mutable bytes : int;
  mutable installed_at_ns : int;
  mutable last_used_ns : int;
  mutable seq : int;
      (** the table's add sequence number, stamped by {!Flow_table.add}
          (0 until then); a [{ e with ... }] copy keeps it.  Within one
          table, (priority descending, [seq] ascending) is the table's
          order. *)
}

val make :
  ?priority:int ->
  ?cookie:int64 ->
  ?idle_timeout_s:int ->
  ?hard_timeout_s:int ->
  match_:Of_match.t ->
  instruction list ->
  t
(** Default priority 1000 (higher wins), no timeouts, zero counters. *)

val touch : t -> now_ns:int -> bytes:int -> unit
(** Update counters on a hit. *)

val expired : t -> now_ns:int -> bool

val actions : t -> Of_action.t list
(** Flattened [Apply_actions] content — convenient for single-table use. *)

val pp : Format.formatter -> t -> unit
