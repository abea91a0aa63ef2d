(** Per-port 802.1Q configuration of a legacy switch. *)

type allowed = All | Only of int list

type mode =
  | Access of int
      (** Untagged member of exactly one VLAN (the PVID).  Tagged frames
          are accepted only if their VID equals the PVID. *)
  | Trunk of { native : int option; allowed : allowed }
      (** Carries tagged frames for [allowed] VLANs; untagged frames map
          to [native] if set, else are dropped. *)
  | Disabled

val default : mode
(** [Access 1] — factory default on essentially every switch. *)

val classify_ingress : mode -> tag_vid:int option -> int option
(** The VLAN a frame belongs to on ingress, or [None] to drop. *)

val egress_encap : mode -> vlan:int -> [ `Untagged | `Tagged of int ] option
(** How (whether) a frame in [vlan] leaves through a port, or [None] if
    the port is not a member. *)

val pp : Format.formatter -> mode -> unit
