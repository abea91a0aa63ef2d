(** Vendor-neutral structured configuration of a legacy switch — the
    common form the NOS dialects render to and parse from text. *)

type stanza = {
  port : int;  (** 0-based port index *)
  mode : Ethswitch.Port_config.mode;
  description : string option;
}

type t = { hostname : string; stanzas : stanza list }
(** [stanzas] is kept sorted by port; one stanza per port. *)

val make : hostname:string -> stanza list -> t
(** Sorts and validates (duplicate ports rejected).
    @raise Invalid_argument on duplicates. *)

val of_switch : hostname:string -> Ethswitch.Legacy_switch.t -> t
(** Snapshot a switch's current per-port configuration. *)

val apply : t -> Ethswitch.Legacy_switch.t -> unit
(** Push every stanza onto the switch.
    @raise Invalid_argument if a stanza names a port the switch lacks. *)

val stanza_for : t -> port:int -> stanza option

val equal_modes : t -> t -> bool
(** Equality on what the device actually enforces — hostname, ports and
    their modes — ignoring descriptions, which not every NOS dialect
    round-trips.  This is the comparison migration recovery uses to
    decide whether a crashed transaction's commit landed. *)

val diff : t -> t -> string list
(** Human-readable per-port differences, ["port 3: access 1 -> access 103"];
    empty when the two configurations are equal. *)
