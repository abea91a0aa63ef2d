(** The one builder of the HARMLESS server, the software half of every
    deployment: one SS_1 ({!Translator}) per member legacy switch, all
    patched into one shared SS_2.  Each SS_1's ports [0 .. nics-1] face
    its trunk NICs, and port [nics + i] is patched to SS_2 port
    [offsets.(m) + i] for member [m]'s logical port [i]. *)

type t = {
  ss1s : Softswitch.Soft_switch.t array;  (** one per member, same order *)
  ss2 : Softswitch.Soft_switch.t;
  offsets : int array;  (** prefix sums of the members' map sizes *)
}

val build :
  Simnet.Engine.t ->
  ?dataplane:Softswitch.Soft_switch.dataplane_kind ->
  ?pmd:Softswitch.Pmd.config ->
  nics:int ->
  ss2:string ->
  (string * Port_map.t) list ->
  t
(** Creates SS_1 ["<name>-ss1"] (drop on miss) per [(name, map)] member,
    then SS_2 [ss2] (misses to the controller), then patches each member
    in and installs its translator hairpinning via NIC 0.  The caller
    cables the trunks. *)
