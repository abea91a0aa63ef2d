(** A priority-ordered flow table with OpenFlow add/modify/delete
    semantics, counters, capacity and timeout expiry. *)

type t

val create : ?max_entries:int -> unit -> t
(** Default capacity 100_000 entries. *)

exception Table_full

val add : t -> now_ns:int -> Flow_entry.t -> unit
(** Insert an entry.  An existing entry with identical match and priority
    is replaced (counters reset), per OFPFC_ADD.  The entry is stamped
    with this table's next add sequence number ([Flow_entry.seq], one
    higher than any earlier stamp of this table), so the table's order is
    (priority descending, [seq] ascending).  Re-adding an entry already
    in the table moves it to the end of its priority run with a new
    stamp.  An entry belongs to one table: adding it to a second one
    re-stamps it there.  One walk copies only the list up to the insert
    point.
    @raise Table_full when at capacity and not replacing. *)

val modify : t -> strict:bool -> Of_match.t -> priority:int ->
  Flow_entry.instruction list -> int
(** Replace the instructions of matching entries (strict: same match and
    priority; non-strict: every entry whose match is subsumed).  Counters
    and add sequence numbers are preserved: a changed entry is a new
    record with its predecessor's [seq], in its predecessor's place.
    Returns the number of entries changed. *)

val delete : t -> strict:bool -> ?out_port:int -> Of_match.t -> priority:int -> int
(** Remove matching entries (same strictness rules); [out_port] further
    restricts to entries with an output to that port.  Returns the number
    removed. *)

val clear : t -> unit

val lookup : t -> in_port:int -> Netpkt.Packet.Fields.t -> Flow_entry.t option
(** Highest-priority matching entry (stable: earliest-added wins ties).
    Does {e not} update counters — callers decide (see {!hit}).  It
    allocates only the [Some] of a hit. *)

val lookup_scan :
  t -> scanned:int ref -> in_port:int -> Netpkt.Packet.Fields.t -> Flow_entry.t option
(** Like {!lookup}, but adds the number of entries examined — the cost a
    linear dataplane pays — to the caller's [scanned] counter. *)

val hit : t -> now_ns:int -> bytes:int -> Flow_entry.t -> unit
(** Record a packet against an entry found by {!lookup}. *)

val expire : t -> now_ns:int -> Flow_entry.t list
(** Remove and return entries whose idle/hard timeout has passed. *)

val size : t -> int
(** O(1). *)

val entries : t -> Flow_entry.t list
(** Priority-descending, then [seq]-ascending. *)

val version : t -> int
(** Increments on every mutation — lets caches detect staleness. *)

val pp : Format.formatter -> t -> unit
