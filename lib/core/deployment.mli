(** Turn-key deployments: hosts, switch(es), links and (for HARMLESS) the
    whole manager-provisioned SS_1/SS_2 sandwich, wired on one engine.
    These are the topologies every experiment, example and integration
    test runs on.

    Conventions — [num_hosts] = n:
    - hosts are [h0 .. h(n-1)] with MAC [make_local (i+1)] and IP
      [10.0.0.(i+1)];
    - on the legacy switch, host [i] connects to access port [i] and the
      trunk is port [n];
    - the controller-visible (SS_2 or plain-OF) port for host [i] is [i]. *)

type t = {
  engine : Simnet.Engine.t;
  hosts : Simnet.Host.t array;
  host_links : Simnet.Link.t array;
  kind : kind;
}

and kind =
  | Legacy_only of {
      legacy : Ethswitch.Legacy_switch.t;
      device : Mgmt.Device.t;
    }  (** the pre-migration network: plain L2, no SDN *)
  | Plain_openflow of { switch : Softswitch.Soft_switch.t }
      (** hosts directly on one OpenFlow switch (software, or COTS
          hardware via the [Hardware] dataplane) *)
  | Harmless of {
      legacy : Ethswitch.Legacy_switch.t;
      device : Mgmt.Device.t;
      trunk_link : Simnet.Link.t;
      prov : Manager.provisioned;
    }
  | Scaled of {
      legacies : Ethswitch.Legacy_switch.t array;
      devices : Mgmt.Device.t array;
      trunk_links : Simnet.Link.t array;
      scale : Scaleout.t;
    }  (** several legacy switches behind one server (see {!Scaleout}) *)

val host_ip : int -> Netpkt.Ipv4_addr.t
val host_mac : int -> Netpkt.Mac_addr.t

val attach_hosts :
  Simnet.Engine.t ->
  host_link:Simnet.Link.config ->
  Simnet.Node.t array ->
  per_node:int ->
  Simnet.Host.t array * Simnet.Link.t array
(** [per_node] hosts on each of [nodes]: host [i] is ["h<i>"] with
    {!host_mac}/{!host_ip}, linked by [host_link] to port
    [i mod per_node] of [nodes.(i / per_node)]. *)

val build_legacy_only :
  Simnet.Engine.t ->
  num_hosts:int ->
  ?vendor:Mgmt.Device.vendor ->
  ?host_link:Simnet.Link.config ->
  unit ->
  t

val build_plain_openflow :
  Simnet.Engine.t ->
  num_hosts:int ->
  ?dataplane:Softswitch.Soft_switch.dataplane_kind ->
  ?pmd:Softswitch.Pmd.config ->
  ?max_flow_entries:int ->
  ?host_link:Simnet.Link.config ->
  unit ->
  t

val build_harmless :
  Simnet.Engine.t ->
  num_hosts:int ->
  ?vendor:Mgmt.Device.vendor ->
  ?base_vid:int ->
  ?dataplane:Softswitch.Soft_switch.dataplane_kind ->
  ?pmd:Softswitch.Pmd.config ->
  ?host_link:Simnet.Link.config ->
  ?trunk:Simnet.Link.config ->
  unit ->
  (t, string) result
(** Builds the legacy switch + device, runs {!Manager.provision}, and
    connects the 10 G trunk (default {!Simnet.Link.ten_gige}). *)

val build_scaleout :
  Simnet.Engine.t ->
  num_switches:int ->
  hosts_per_switch:int ->
  ?vendor:Mgmt.Device.vendor ->
  ?dataplane:Softswitch.Soft_switch.dataplane_kind ->
  ?pmd:Softswitch.Pmd.config ->
  ?host_link:Simnet.Link.config ->
  ?trunk:Simnet.Link.config ->
  unit ->
  (t, string) result
(** [num_switches] legacy switches, each with [hosts_per_switch] hosts,
    all fronted by one server (shared SS_2).  Host
    [m * hosts_per_switch + i] sits on switch [m], access port [i], and —
    because every member contributes the same number of ports — its
    controller-visible SS_2 port equals its host index. *)

val controller_switch : t -> Softswitch.Soft_switch.t
(** The switch a controller should attach to: SS_2 for HARMLESS (single
    or scale-out), the switch itself for plain OpenFlow.
    @raise Invalid_argument for a legacy-only deployment. *)

val host : t -> int -> Simnet.Host.t
val num_hosts : t -> int
