(** TCP segments (RFC 793), without options. *)

type flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
  urg : bool;
}

val syn : flags
val syn_ack : flags
val ack_only : flags
val fin_ack : flags

type t = {
  src_port : int;
  dst_port : int;
  seq : int32;
  ack_no : int32;
  flags : flags;
  window : int;
  payload : string;
}

val make :
  src_port:int ->
  dst_port:int ->
  ?seq:int32 ->
  ?ack_no:int32 ->
  ?flags:flags ->
  ?window:int ->
  string ->
  t
(** Defaults: zero sequence numbers, no flags, window 65535.
    @raise Invalid_argument on out-of-range port or window. *)

val header_size : int
(** 20 bytes (no options). *)

val size : t -> int

val encode : src:Ipv4_addr.t -> dst:Ipv4_addr.t -> t -> string
(** Encodes with the checksum computed over the IPv4 pseudo-header. *)

val decode : src:Ipv4_addr.t -> dst:Ipv4_addr.t -> string -> t
(** Options, if present, are skipped and not preserved.
    @raise Wire.Truncated / @raise Wire.Malformed on bad input. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
