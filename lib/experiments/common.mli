(** Shared plumbing for the experiments: proactive forwarding apps,
    warm-up helpers and run-control. *)

val proactive_l2 : num_hosts:int -> Sdnctl.Controller.app
(** Installs one exact [eth_dst → output] rule per host on switch-up
    (destination MAC/port per the {!Harmless.Deployment} conventions) and
    an ARP-flood rule — static forwarding with no reactive path, so
    throughput experiments measure the dataplane, not the controller. *)

val warm_legacy : Harmless.Deployment.t -> unit
(** Make every host broadcast one ARP so legacy MAC tables are populated
    before measurement. *)

val built : ('a, string) result -> 'a
(** A builder's result, or [Failure] with its error message. *)

val run_for : Simnet.Engine.t -> Simnet.Sim_time.span -> unit
(** Advance the simulation by a span from now. *)

val attach_with_apps :
  Harmless.Deployment.t -> Sdnctl.Controller.app list -> Sdnctl.Controller.t
(** Create a controller, register the apps, attach the deployment's
    OpenFlow switch, and run 5 simulated ms so the handshake and
    proactive installs settle. *)

val total_udp_received : Harmless.Deployment.t -> int
