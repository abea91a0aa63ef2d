(* E1 — Fig. 1 behavioural reproduction: the exact packet walk
   Host1 -> tag -> trunk -> SS_1 -> patch -> SS_2 (policy) -> patch ->
   SS_1 -> hairpin -> trunk -> untag -> Host2, asserted from a capture.

   We send two pings so the second one travels the installed fast path
   (no controller involvement), then check the walk of its request. *)

open Simnet
open Netpkt

type check = { step : string; expected : string; observed : string; ok : bool }

let run_checks () =
  let engine = Engine.create () in
  let deployment =
    Common.built (Harmless.Deployment.build_harmless engine ~num_hosts:4 ())
  in
  let legacy, ss1, ss2 =
    match deployment.Harmless.Deployment.kind with
    | Harmless.Deployment.Harmless { legacy; prov; _ } ->
        (legacy, prov.Harmless.Manager.ss1, prov.Harmless.Manager.ss2)
    | Harmless.Deployment.Legacy_only _ | Harmless.Deployment.Plain_openflow _
  | Harmless.Deployment.Scaled _ ->
        assert false
  in
  ignore
    (Common.attach_with_apps deployment [ Sdnctl.L2_learning.create () ]);
  let h0 = Harmless.Deployment.host deployment 0
  and h1 = Harmless.Deployment.host deployment 1 in
  (* First ping: reactive (floods, installs flows). *)
  Host.ping h0 ~dst_mac:(Host.mac h1) ~dst_ip:(Host.ip h1) ~seq:1;
  Common.run_for engine (Sim_time.ms 20);
  (* Second ping: the installed fast path; capture only this one. *)
  let capture = Capture.create () in
  Capture.attach capture (Ethswitch.Legacy_switch.node legacy);
  Capture.attach capture (Softswitch.Soft_switch.node ss1);
  Capture.attach capture (Softswitch.Soft_switch.node ss2);
  Host.ping h0 ~dst_mac:(Host.mac h1) ~dst_ip:(Host.ip h1) ~seq:2;
  Common.run_for engine (Sim_time.ms 20);
  let is_request e =
    match e.Capture.packet.Packet.l3 with
    | Packet.Ip { Ipv4.payload = Ipv4.Icmp (Icmp.Echo_request { seq = 2; _ }); _ } ->
        true
    | _ -> false
  in
  let entry ~node ~dir ~port =
    List.find_opt
      (fun e ->
        String.equal e.Capture.node node && e.Capture.dir = dir
        && e.Capture.port = port)
      (Capture.filter capture is_request)
  in
  let tag_of = function
    | Some e -> (
        match Packet.outer_vid e.Capture.packet with
        | Some v -> Printf.sprintf "vlan %d" v
        | None -> "untagged")
    | None -> "missing"
  in
  let mk step node dir port expected_tag =
    let e = entry ~node ~dir ~port in
    {
      step;
      expected = expected_tag;
      observed = tag_of e;
      ok = (match e with Some _ -> String.equal (tag_of e) expected_tag | None -> false);
    }
  in
  let trunk_port = 4 in
  [
    mk "legacy rx from host0 (access port 0)" "legacy0" Node.Rx 0 "untagged";
    mk "legacy tx on trunk, tagged with host0's vlan" "legacy0" Node.Tx trunk_port
      "vlan 101";
    mk "SS_1 rx on trunk" "legacy0-ss1" Node.Rx 0 "vlan 101";
    mk "SS_1 tx on patch port 1 (tag popped)" "legacy0-ss1" Node.Tx 1 "untagged";
    mk "SS_2 rx on logical port 0" "legacy0-ss2" Node.Rx 0 "untagged";
    mk "SS_2 tx on logical port 1 (OF decision)" "legacy0-ss2" Node.Tx 1 "untagged";
    mk "SS_1 rx back on patch port 2" "legacy0-ss1" Node.Rx 2 "untagged";
    mk "SS_1 hairpin to trunk, tagged with host1's vlan" "legacy0-ss1" Node.Tx 0
      "vlan 102";
    mk "legacy rx hairpinned frame on trunk" "legacy0" Node.Rx trunk_port "vlan 102";
    mk "legacy tx to host1, untagged" "legacy0" Node.Tx 1 "untagged";
  ]

let run () =
  let checks = run_checks () in
  Tables.print ~title:"E1: Fig. 1 walk-through (2nd ping, installed fast path)"
    ~header:[ "step"; "expected"; "observed"; "ok" ]
    (List.map
       (fun c -> [ c.step; c.expected; c.observed; (if c.ok then "yes" else "NO") ])
       checks);
  let passed = List.for_all (fun c -> c.ok) checks in
  Printf.printf "\nE1 verdict: %s\n"
    (if passed then "walk-through matches Fig. 1" else "MISMATCH");
  passed
