(** Fabric-wide roll-up of per-switch {!Softswitch.Flowrec} sketches:
    the controller-side half of the traffic observability plane.

    A collector owns one {!Softswitch.Flowrec.config} (so every switch
    samples under the {e same} sketch seed and dimensions — the
    precondition for merging), attaches a recorder to each registered
    switch, and on every merge tick folds all per-switch sketches into
    one fabric view.  Merge ticks run on the sim clock
    ({!start}/{!Simnet.Engine.schedule_every}) and feed three
    {!Telemetry.Timeseries} consumed by dashboards and alert rules.

    Everything is deterministic: same seed, same workload, same
    report. *)

type t

val create : ?config:Softswitch.Flowrec.config -> Simnet.Engine.t -> t

val config : t -> Softswitch.Flowrec.config

val add_switch : t -> Softswitch.Soft_switch.t -> unit
(** Create a recorder under the collector's config and attach it via
    {!Softswitch.Soft_switch.set_flowrec}. *)

val attach : t -> name:string -> Softswitch.Flowrec.t -> unit
(** Register an externally created recorder (must share the
    collector's config for merges to be valid). *)

val recorders : t -> (string * Softswitch.Flowrec.t) list

val merge_now : t -> unit
(** Fold every per-switch sketch into the merged fabric view and
    append the sampled/hosts/top-bytes series points at the current
    sim time. *)

val start : t -> every:Simnet.Sim_time.span -> unit
(** Schedule {!merge_now} every [every] on the engine, forever. *)

val merges : t -> int

val seen : t -> int
(** Packets observed across all switches (sampled or not). *)

val sampled : t -> int

val hosts : t -> float
(** Estimated distinct source hosts in the merged view (as of the last
    merge). *)

val top : ?k:int -> t -> (string * int * int) list
(** Merged heavy hitters, [(flow, est_bytes, err)], count desc then
    key asc; at most [k] entries when given. *)

val merged_cm : t -> Telemetry.Sketch.Cm.t

val sampled_series : t -> Telemetry.Timeseries.t
(** Counter: cumulative sampled packets, one point per merge. *)

val hosts_series : t -> Telemetry.Timeseries.t
(** Gauge: estimated source cardinality. *)

val add_alert_rules :
  ?elephant_bytes:float -> ?max_hosts:float -> t -> Telemetry.Alert.t -> unit
(** Register the two standard traffic rules: ["elephant-flow"] (top
    flow bytes above [elephant_bytes], default 1 MB) and
    ["host-cardinality"] (estimated hosts above [max_hosts], default
    100k). *)

val render : ?k:int -> t -> string
(** The dashboard heavy-hitters panel (default top 10). *)

val to_json : ?k:int -> t -> Telemetry.Json.t
