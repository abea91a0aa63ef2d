(** A device's management information base: a dynamic, ordered key-value
    view over live device state.  Providers register subtrees whose
    bindings are computed on demand, so counters read through SNMP are
    always current. *)

type value = Int of int | Str of string

type t

val create : unit -> t

val register_subtree :
  t ->
  Oid.t ->
  bindings:(unit -> (Oid.t * value) list) ->
  ?set:(Oid.t -> value -> (unit, string) result) ->
  unit ->
  unit
(** Mount a provider at a prefix.  [bindings] must return OIDs under the
    prefix.  [set] (if given) handles writes anywhere under the prefix.
    @raise Invalid_argument when the prefix overlaps an existing mount. *)

val register_scalar :
  t -> Oid.t -> get:(unit -> value) ->
  ?set:(value -> (unit, string) result) -> unit -> unit
(** Single-OID convenience wrapper over {!register_subtree}. *)

val get : t -> Oid.t -> value option
val set : t -> Oid.t -> value -> (unit, string) result
(** [Error "notWritable"] when no provider accepts the OID. *)

val next : t -> Oid.t -> (Oid.t * value) option
(** The first binding strictly after the given OID in lexicographic
    order — SNMP getnext. *)

val walk : t -> Oid.t -> (Oid.t * value) list
(** All bindings under a prefix, in order. *)
