(* Render raw telemetry hops in the paper's vocabulary.

   The instrumentation in simnet/ethswitch/softswitch emits generic
   stages ("ingress", "tag_push", "pipeline", "tx") because those
   layers do not know which switch plays which HARMLESS role.  This
   module does know — it reads the deployment — and maps each hop onto
   the Fig. 1 walk: tag push, trunk, SS_1 translation, patch port,
   SS_2 pipeline, hairpin, tag pop. *)

open Softswitch

type t = {
  legacy_trunk : (string * int) list; (* legacy switch name -> trunk port *)
  ss1 : string list;
  ss2 : string list;
  ss1_trunk : int;
}

let plain =
  { legacy_trunk = []; ss1 = []; ss2 = []; ss1_trunk = Translator.trunk_port }

let make ?(legacy_trunk = []) ?(ss1 = []) ?(ss2 = [])
    ?(ss1_trunk = Translator.trunk_port) () =
  { legacy_trunk; ss1; ss2; ss1_trunk }

(* Each legacy switch's trunk is its last port. *)
let of_server legacies ss1s ss2 =
  let names f a = Array.to_list (Array.map f a) in
  {
    legacy_trunk =
      names
        (fun l -> Ethswitch.Legacy_switch.(name l, port_count l - 1))
        legacies;
    ss1 = names Soft_switch.name ss1s;
    ss2 = [ Soft_switch.name ss2 ];
    ss1_trunk = Translator.trunk_port;
  }

let of_deployment (d : Deployment.t) =
  match d.Deployment.kind with
  | Deployment.Legacy_only { legacy; _ } ->
      (* No trunk: every port is an access port. *)
      {
        plain with
        legacy_trunk = [ (Ethswitch.Legacy_switch.name legacy, -1) ];
      }
  | Deployment.Plain_openflow { switch } ->
      { plain with ss2 = [ Soft_switch.name switch ] }
  | Deployment.Harmless { legacy; prov; _ } ->
      of_server [| legacy |] [| prov.Manager.ss1 |] prov.Manager.ss2
  | Deployment.Scaled { legacies; scale; _ } ->
      let server = scale.Scaleout.server in
      of_server legacies server.Server.ss1s server.Server.ss2

(* Canonical step names of the HARMLESS walk; the integration tests
   assert their order. *)
let semantic t (hop : Telemetry.Trace.hop) =
  let is_ss1 = List.mem hop.Telemetry.Trace.component t.ss1 in
  let is_ss2 = List.mem hop.Telemetry.Trace.component t.ss2 in
  let port = hop.Telemetry.Trace.port in
  match (hop.Telemetry.Trace.layer, hop.Telemetry.Trace.stage) with
  | Telemetry.Trace.Host, "tx" -> Some "host-tx"
  | Telemetry.Trace.Host, "rx" -> Some "host-rx"
  | Telemetry.Trace.Legacy, "ingress" -> (
      match List.assoc_opt hop.Telemetry.Trace.component t.legacy_trunk with
      | Some trunk when port = Some trunk -> Some "legacy-trunk-ingress"
      | Some _ -> Some "legacy-ingress"
      | None -> None)
  | Telemetry.Trace.Legacy, "tag_push" -> Some "tag-push"
  | Telemetry.Trace.Legacy, "tag_pop" -> Some "tag-pop"
  | Telemetry.Trace.Legacy, "egress" -> Some "legacy-egress"
  | Telemetry.Trace.Switch, "rx" when is_ss1 ->
      Some (if port = Some t.ss1_trunk then "trunk-rx" else "patch-rx")
  | Telemetry.Trace.Switch, "pipeline" when is_ss1 -> Some "translate"
  | Telemetry.Trace.Switch, "tx" when is_ss1 ->
      Some (if port = Some t.ss1_trunk then "hairpin" else "patch-tx")
  | Telemetry.Trace.Switch, "rx" when is_ss2 -> Some "ss2-rx"
  | Telemetry.Trace.Switch, "pipeline" when is_ss2 -> Some "of-pipeline"
  | Telemetry.Trace.Switch, "tx" when is_ss2 -> Some "ss2-tx"
  | Telemetry.Trace.Switch, ("rx" | "pipeline" | "tx" as stage) ->
      Some ("switch-" ^ stage)
  | Telemetry.Trace.Switch, "punt" -> Some "punt"
  | Telemetry.Trace.Switch, "drop" -> Some "drop"
  | Telemetry.Trace.Controller, stage -> Some ("controller-" ^ stage)
  | _, _ -> None

let describe t hop =
  match semantic t hop with
  | None -> ""
  | Some "host-tx" -> "host NIC out"
  | Some "host-rx" -> "host NIC in — delivered"
  | Some "legacy-ingress" -> "legacy: access ingress, classified into port VLAN"
  | Some "legacy-trunk-ingress" -> "legacy: tagged frame back in from trunk"
  | Some "tag-push" -> "legacy: push 802.1Q tag, up the trunk"
  | Some "tag-pop" -> "legacy: pop tag, deliver on access port"
  | Some "legacy-egress" -> "legacy: untagged delivery"
  | Some "trunk-rx" -> "SS_1: tagged frame in from trunk"
  | Some "patch-rx" -> "SS_1: frame back from SS_2 via patch port"
  | Some "translate" -> "SS_1: translator lookup (VLAN <-> patch)"
  | Some "patch-tx" -> "SS_1 -> patch port -> SS_2"
  | Some "hairpin" -> "SS_1: hairpin — re-tagged, back down the trunk"
  | Some "ss2-rx" -> "SS_2: plain-port ingress (transparent)"
  | Some "of-pipeline" -> "SS_2: OpenFlow pipeline"
  | Some "ss2-tx" -> "SS_2: output action -> patch port"
  | Some "punt" -> "punt to controller"
  | Some "drop" -> "dropped"
  | Some "controller-packet_in" -> "controller: packet-in"
  | Some "controller-packet_out" -> "controller: packet-out"
  | Some s -> s

let pp_hop t fmt (hop : Telemetry.Trace.hop) =
  Format.fprintf fmt "%9s  %-12s"
    (Format.asprintf "%a" Telemetry.Trace.pp_time hop.Telemetry.Trace.ts_ns)
    hop.Telemetry.Trace.component;
  (match hop.Telemetry.Trace.port with
  | Some p -> Format.fprintf fmt " port %-3d" p
  | None -> Format.fprintf fmt "         ");
  if hop.Telemetry.Trace.cycles > 0 then
    Format.fprintf fmt " %6d cyc " hop.Telemetry.Trace.cycles
  else Format.fprintf fmt "             ";
  let description = describe t hop in
  Format.fprintf fmt " %s" (if description = "" then hop.Telemetry.Trace.stage else description);
  if hop.Telemetry.Trace.detail <> "" then
    Format.fprintf fmt "  [%s]" hop.Telemetry.Trace.detail

let pp_trace t fmt (trace : Telemetry.Trace.trace) =
  (match trace.Telemetry.Trace.hops with
  | first :: _ ->
      Format.fprintf fmt "packet %08x: %s (%d hops)@." trace.Telemetry.Trace.key
        (Lazy.force first.Telemetry.Trace.packet)
        (List.length trace.Telemetry.Trace.hops)
  | [] -> Format.fprintf fmt "packet %08x: (no hops)@." trace.Telemetry.Trace.key);
  List.iter
    (fun hop -> Format.fprintf fmt "  %a@." (pp_hop t) hop)
    trace.Telemetry.Trace.hops

let semantic_path t (trace : Telemetry.Trace.trace) =
  List.filter_map (semantic t) trace.Telemetry.Trace.hops
