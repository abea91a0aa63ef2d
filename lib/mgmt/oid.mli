(** SNMP object identifiers. *)

type t
(** A non-empty sequence of non-negative arcs, e.g. [1.3.6.1.2.1.1.1.0]. *)

val of_list : int list -> t
(** @raise Invalid_argument on an empty list or negative arc. *)

val to_list : t -> int list

val of_string : string -> t
(** Parses dotted notation, with or without a leading dot.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val is_prefix : t -> t -> bool
(** [is_prefix p t]: does [t] live under [p]? (Reflexive.) *)

val compare : t -> t -> int
(** Lexicographic — the ordering SNMP getnext walks. *)

val equal : t -> t -> bool

(** Well-known MIB-2 locations used by the simulated agents.  Interface
    accessors take a 1-based ifIndex, SNMP-style. *)
module Std : sig
  val sys_descr : t

  val sys_up_time : t

  val sys_name : t

  val if_number : t

  val if_table : t

  val if_descr : int -> t

  val if_oper_status : int -> t

  val if_in_ucast : int -> t

  val if_out_ucast : int -> t

  val vlan_port_vlan : int -> t
  (** Port-VLAN assignment (modelled on Q-BRIDGE dot1qPvid): readable and
      writable per port index. *)
end
