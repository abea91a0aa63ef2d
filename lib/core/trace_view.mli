(** Render raw telemetry hops in the paper's vocabulary.

    The instrumentation layers (simnet, ethswitch, softswitch) emit
    generic stage names because they do not know which switch plays
    which HARMLESS role.  A [Trace_view.t] — built from a deployment —
    does, and maps every hop onto the Fig. 1 walk: access ingress, tag
    push, trunk, SS_1 translation, patch port, SS_2 pipeline, hairpin,
    tag pop, delivery. *)

type t

val plain : t
(** A view with no role knowledge: hops keep their generic names. *)

val of_deployment : Deployment.t -> t
(** Learn switch roles (which devices are legacy / SS_1 / SS_2, which
    ports are trunks) from a deployment. *)

val make :
  ?legacy_trunk:(string * int) list ->
  ?ss1:string list ->
  ?ss2:string list ->
  ?ss1_trunk:int ->
  unit ->
  t
(** Assemble a view from explicit role assignments, for rigs that wire
    their topology by hand (e.g. {!Chaos}): [legacy_trunk] maps each
    legacy switch name to its trunk port, [ss1]/[ss2] name the software
    switches, [ss1_trunk] is SS_1's trunk-facing port (default
    {!Translator.trunk_port}). *)

val semantic : t -> Telemetry.Trace.hop -> string option
(** Canonical step name for a hop, e.g. ["tag-push"], ["translate"],
    ["hairpin"], ["tag-pop"]; [None] for hops the view cannot place.
    The integration tests assert the order of these names along a
    ping's path. *)

val semantic_path : t -> Telemetry.Trace.trace -> string list
(** [semantic] over every hop of a trace, unplaceable hops dropped. *)

val pp_hop : t -> Format.formatter -> Telemetry.Trace.hop -> unit
(** One line: sim time, component, port, cycle cost, description. *)

val pp_trace : t -> Format.formatter -> Telemetry.Trace.trace -> unit
(** A packet header line followed by one [pp_hop] line per hop. *)
