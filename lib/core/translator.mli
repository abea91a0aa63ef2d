(** The OpenFlow Translator Component (SS_1 in Fig. 1): the adaptation
    layer that hides the VLAN trick from the controller.

    SS_1's ports are laid out by {!Server.build}: trunk NIC(s) first,
    then one patch port per managed port (in the one-NIC default, port 0
    and ports [1 + i]).  SS_1's flow table does exactly two things:

    - trunk → patch: a frame arriving on the trunk with VLAN [vid(i)]
      has its tag popped and leaves on logical port [i]'s patch port;
    - patch → trunk: a frame arriving on that patch port gets a fresh
      tag with [vid(i)] pushed and leaves on the trunk — the
      "hairpinning" direction.

    Frames with unknown VLANs (or untagged ones) miss and are dropped:
    SS_1 must be configured with [Drop_on_miss]. *)

val trunk_port : int
(** 0 — SS_1's first trunk NIC port. *)

val patch_port_of_logical : int -> int
(** [1 + i]: the patch port for logical port [i] in the one-NIC layout. *)

val rules : Port_map.t -> Openflow.Of_message.flow_mod list
(** The complete SS_1 flow program for a mapping in the one-NIC layout
    (2 rules per managed port, table 0). *)

val install :
  ?trunk_port:int -> Softswitch.Soft_switch.t -> Port_map.t -> unit
(** Apply the flow program directly to a switch (the Manager runs on the
    same server as SS_1, so no control channel is involved), hairpinning
    via NIC [trunk_port] (default {!trunk_port}).  The patch ports are
    the switch's last [Port_map.size map] ports. *)

val reinstall :
  ?trunk_port:int -> Softswitch.Soft_switch.t -> Port_map.t -> unit
(** Clear table 0 and {!install} — how failover repoints SS_1 at a
    backup trunk NIC, and how a restarted SS_1 gets its rules back. *)
