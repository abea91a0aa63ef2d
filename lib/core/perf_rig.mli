(** Deterministic profiling rig: where does a packet's time go, and
    what does the HARMLESS detour cost over a direct OpenFlow path?

    The rig builds two deployments on fresh engines — the full HARMLESS
    sandwich ({!Deployment.build_harmless}) and the same hosts wired
    straight into one OpenFlow switch
    ({!Deployment.build_plain_openflow}) — attaches an L2-learning
    controller to each, warms both up (handshake, a ring of pings so
    the controller learns every host's MAC, then one round over every
    ordered host pair so MAC tables and flow tables are populated),
    then drives the same traced ping sequence through each
    and folds the traces into a {!Telemetry.Profile} per side.

    Everything runs on the simulation clock, so for fixed parameters
    the report — including the rendered attribution table — is
    byte-identical across runs.  The warm-up matters: measured pings
    all take the fast path, the workload is homogeneous, and the
    per-stage p50s sum to the end-to-end p50 (the invariant
    {!Telemetry.Profile} documents and the tests pin). *)

type report = {
  harmless : Telemetry.Profile.t;
  plain : Telemetry.Profile.t;  (** the direct-path control group *)
  num_hosts : int;
  pings : int;  (** measured pings per side (warm-up excluded) *)
}

val run :
  ?num_hosts:int ->
  ?pings:int ->
  ?dataplane:Softswitch.Soft_switch.dataplane_kind ->
  unit ->
  (report, string) result
(** Defaults: 4 hosts, 40 measured pings, the default dataplane.
    [Error] only when the HARMLESS provisioning fails. *)

val overhead_ratio : report -> float option
(** HARMLESS e2e latency p50 / direct-path e2e p50 — the number behind
    the paper's "no major latency penalty" claim.  [None] when either
    side collected no complete trace. *)

val attribution : report -> string
(** Deterministic text report: the per-stage attribution table for each
    side (see {!Telemetry.Profile.attribution_table}) and a closing
    HARMLESS-vs-direct overhead line. *)
