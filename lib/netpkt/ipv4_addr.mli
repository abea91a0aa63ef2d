(** IPv4 addresses and CIDR prefixes. *)

type t
(** An IPv4 address, stored as a 32-bit value. *)

val any : t
(** [0.0.0.0]. *)

val broadcast : t
(** [255.255.255.255]. *)

val of_int32 : int32 -> t
val to_int32 : t -> int32

val to_int : t -> int
(** The address as an unsigned 32-bit int; allocates nothing. *)

val of_int : int -> t
(** Inverse of {!to_int}: the low 32 bits of the int. *)

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] is [a.b.c.d]. Each octet must be in [0, 255].
    @raise Invalid_argument otherwise. *)

val of_string : string -> t
(** Parses dotted-quad notation. @raise Invalid_argument on bad input. *)

val of_string_opt : string -> t option
val to_string : t -> string

val of_bytes : string -> t
(** [of_bytes s] reads 4 big-endian bytes.
    @raise Invalid_argument if [String.length s <> 4]. *)

val to_bytes : t -> string

val succ : t -> t
(** Next address, wrapping at [255.255.255.255]. *)

val add : t -> int -> t
(** [add t n] offsets [t] by [n] (may wrap). *)

val is_multicast : t -> bool
(** True for 224.0.0.0/4. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

(** CIDR prefixes such as [10.0.0.0/8]. *)
module Prefix : sig
  type addr := t
  type t

  val make : addr -> int -> t
  (** [make base len] is the prefix of length [len] containing [base]; host
      bits of [base] are cleared.  @raise Invalid_argument unless
      [0 <= len <= 32]. *)

  val of_string : string -> t
  (** Parses ["10.0.0.0/8"]. @raise Invalid_argument on bad input. *)

  val to_string : t -> string
  val base : t -> addr
  val length : t -> int
  val mask : t -> addr
  (** Netmask as an address, e.g. [255.0.0.0] for /8. *)

  val mem : addr -> t -> bool
  (** [mem a p] is true iff [a] lies inside [p]. *)

  val mem_int : int -> t -> bool
  (** [mem] on an address given as {!to_int}; allocates nothing. *)

  val subsumes : t -> t -> bool
  (** [subsumes p q] is true iff every address of [q] is in [p]. *)

  val nth : t -> int -> addr
  (** [nth p i] is the [i]-th address of [p].
      @raise Invalid_argument if out of range. *)

  val size : t -> int
  (** Number of addresses covered (2^(32-len), capped at [max_int]). *)

  val equal : t -> t -> bool
  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
end
