(** A priority-ordered flow table with OpenFlow add/modify/delete
    semantics, counters, capacity and timeout expiry. *)

type t

val create : ?max_entries:int -> unit -> t
(** Default capacity 100_000 entries. *)

exception Table_full

val add : t -> now_ns:int -> Flow_entry.t -> unit
(** Insert an entry.  An existing entry with identical match and priority
    is replaced (counters reset), per OFPFC_ADD.
    @raise Table_full when at capacity and not replacing. *)

val modify : t -> strict:bool -> Of_match.t -> priority:int ->
  Flow_entry.instruction list -> int
(** Replace the instructions of matching entries (strict: same match and
    priority; non-strict: every entry whose match is subsumed).  Counters
    are preserved.  Returns the number of entries changed. *)

val delete : t -> strict:bool -> ?out_port:int -> Of_match.t -> priority:int -> int
(** Remove matching entries (same strictness rules); [out_port] further
    restricts to entries with an output to that port.  Returns the number
    removed. *)

val clear : t -> unit

val lookup : t -> in_port:int -> Netpkt.Packet.Fields.t -> Flow_entry.t option
(** Highest-priority matching entry (stable: earliest-added wins ties).
    Does {e not} update counters — callers decide (see {!hit}). *)

val lookup_scan :
  t -> in_port:int -> Netpkt.Packet.Fields.t -> Flow_entry.t option * int
(** Like {!lookup} but also reports how many entries were examined —
    the cost a linear dataplane pays. *)

val hit : t -> now_ns:int -> bytes:int -> Flow_entry.t -> unit
(** Record a packet against an entry found by {!lookup}. *)

val expire : t -> now_ns:int -> Flow_entry.t list
(** Remove and return entries whose idle/hard timeout has passed. *)

val size : t -> int
val entries : t -> Flow_entry.t list
(** Priority-descending. *)

val version : t -> int
(** Increments on every mutation — lets caches detect staleness. *)

val pp : Format.formatter -> t -> unit
