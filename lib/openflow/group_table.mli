(** OpenFlow group table: indirection targets for [Group] actions.

    Three of the four OpenFlow group types are modelled — [All]
    (replicate to every bucket, e.g. multicast), [Select] (pick one
    bucket by flow hash, e.g. ECMP/load-balancing) and [Indirect]
    (single bucket, shared next-hop). *)

type bucket = { weight : int; actions : Of_action.t list }

type group_type = All | Select | Indirect

type t

val create : unit -> t

val add : t -> id:int -> group_type -> bucket list -> unit
(** @raise Invalid_argument if the id exists, if an [Indirect] group has
    other than one bucket, or if a [Select] group has a non-positive
    total weight. *)

val modify : t -> id:int -> group_type -> bucket list -> unit
(** @raise Not_found if absent. *)

val remove : t -> id:int -> unit
val size : t -> int

val select_buckets :
  t -> id:int -> flow_hash:int -> bucket list
(** Buckets to execute for a packet with [flow_hash]: all of them for
    [All], the weighted hash-selected one for [Select], the single one
    for [Indirect].  @raise Not_found for an unknown id. *)
