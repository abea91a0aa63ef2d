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

val classify_ingress : mode -> tag_vid:int -> int
(** The VLAN a frame belongs to on ingress, or [-1] to drop.  [tag_vid]
    is the VID of the frame's outer tag, or [-1] for an untagged frame.
    Allocates nothing. *)

(** How a frame leaves through a port. *)
type encap =
  | Not_member  (** the port is not in the frame's VLAN: it does not leave *)
  | Untagged
  | Tagged      (** tagged with the frame's VLAN *)

val egress_encap : mode -> vlan:int -> encap
(** How (whether) a frame in [vlan] leaves through a port.  Allocates
    nothing. *)

val pp : Format.formatter -> mode -> unit
