(** Patch ports: zero-copy internal wires between two software switches on
    the same server (how SS_1 hands packets to SS_2 in HARMLESS).  Delivery
    is a same-instant engine event — no bandwidth, queueing or propagation
    cost, matching the shared-memory port pairs of OVS/ESwitch. *)

val connect : Simnet.Node.t * int -> Simnet.Node.t * int -> unit
(** @raise Invalid_argument if a port is attached or engines differ. *)
