(** An SNMP agent over a {!Mib}: community-authenticated get / set /
    getnext / walk, with SNMPv2-style error reporting. *)

type error =
  | Bad_community
  | No_such_object
  | Not_writable of string
  | End_of_mib
  | Timeout  (** the request datagram (or its reply) was lost *)

val pp_error : Format.formatter -> error -> unit

val is_transient : error -> bool
(** [true] only for {!Timeout} — the errors a retry can cure. *)

type t

val create : ?read_community:string -> ?write_community:string -> Mib.t -> t
(** Defaults: ["public"] / ["private"]. *)

val set_fault_plan : t -> Fault_plan.t option -> unit
(** Attach (or clear) a transient-failure plan.  A planned failure makes
    the operation return {!Timeout} before community or OID are even
    looked at — lost datagrams do not discriminate. *)

val get : t -> community:string -> Oid.t -> (Mib.value, error) result
val get_next : t -> community:string -> Oid.t -> (Oid.t * Mib.value, error) result
val set : t -> community:string -> Oid.t -> Mib.value -> (unit, error) result
val walk : t -> community:string -> Oid.t -> ((Oid.t * Mib.value) list, error) result

val requests : t -> int
(** Total operations served (for the manager-workflow experiment). *)
