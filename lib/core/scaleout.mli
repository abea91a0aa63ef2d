(** Scale-out HARMLESS: one server fronting {e several} legacy switches —
    how the cost model's "one server per three switches" deployments are
    actually wired.

    Each member switch gets its own trunk and its own SS_1 translator
    (VLAN ids are local to a trunk, so the same 101.. range is reused per
    member), but all translators patch into a {e single} shared SS_2 —
    {!Server.build} with one member per switch.
    The controller therefore sees one big OpenFlow switch whose port
    space is the concatenation of every member's managed access ports —
    cross-switch forwarding falls out of ordinary OpenFlow rules, with
    the traffic hairpinning through the server. *)

type member = {
  device : Mgmt.Device.t;
  trunk_port : int;
  access_ports : int list;
}

type t = {
  server : Server.t;
      (** one SS_1 per member, same order, and the shared SS_2; member
          [m]'s logical port [i] is SS_2 port [server.offsets.(m) + i] *)
  port_maps : Port_map.t array;
  reports : Manager.report array;
}

val provision :
  Simnet.Engine.t ->
  members:member list ->
  ?base_vid:int ->
  ?dataplane:Softswitch.Soft_switch.dataplane_kind ->
  ?pmd:Softswitch.Pmd.config ->
  unit ->
  (t, string) result
(** Configures every member through its own management plane (same
    workflow as {!Manager.provision}); any failure aborts the whole
    operation with the already-configured members rolled back.
    The caller connects each trunk:
    [(legacy_m, trunk_port_m)] ↔ [(server.ss1s.(m), Translator.trunk_port)]. *)

val total_ports : t -> int
(** SS_2's port count = total managed access ports. *)

val ss2_port : t -> member:int -> access_port:int -> int option
(** The controller-visible port for a member's legacy access port. *)

val member_of_ss2_port : t -> int -> (int * int) option
(** Inverse of {!ss2_port}: (member index, legacy access port). *)
