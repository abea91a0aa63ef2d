open Simnet
open Ethswitch
open Mgmt
open Softswitch
open Netpkt

type t = {
  engine : Engine.t;
  hosts : Host.t array;
  host_links : Link.t array;
  kind : kind;
}

and kind =
  | Legacy_only of { legacy : Legacy_switch.t; device : Device.t }
  | Plain_openflow of { switch : Soft_switch.t }
  | Harmless of {
      legacy : Legacy_switch.t;
      device : Device.t;
      trunk_link : Link.t;
      prov : Manager.provisioned;
    }
  | Scaled of {
      legacies : Legacy_switch.t array;
      devices : Device.t array;
      trunk_links : Link.t array;
      scale : Scaleout.t;
    }

let host_ip i = Ipv4_addr.of_octets 10 0 0 (i + 1)
let host_mac i = Mac_addr.make_local (i + 1)

let attach_hosts engine ~host_link nodes ~per_node =
  let hosts =
    Array.init (Array.length nodes * per_node) (fun i ->
        Host.create engine
          ~name:(Printf.sprintf "h%d" i)
          ~mac:(host_mac i) ~ip:(host_ip i) ())
  in
  let links =
    Array.mapi
      (fun i h ->
        Link.connect ~a_to_b:host_link ~b_to_a:host_link
          (Host.node h, 0)
          (nodes.(i / per_node), i mod per_node))
      hosts
  in
  (hosts, links)

let build_legacy_only engine ~num_hosts ?(vendor = Device.Cisco_like)
    ?(host_link = Link.gige) () =
  let legacy =
    Legacy_switch.create engine ~name:"legacy0" ~ports:(num_hosts + 1) ()
  in
  let device = Device.create ~switch:legacy ~vendor () in
  let hosts, host_links =
    attach_hosts engine ~host_link [| Legacy_switch.node legacy |]
      ~per_node:num_hosts
  in
  { engine; hosts; host_links; kind = Legacy_only { legacy; device } }

let build_plain_openflow engine ~num_hosts ?(dataplane = Soft_switch.Eswitch)
    ?pmd ?max_flow_entries ?(host_link = Link.gige) () =
  let switch =
    Soft_switch.create engine ~name:"of0" ~ports:num_hosts ~dataplane ?pmd
      ?max_flow_entries ()
  in
  let hosts, host_links =
    attach_hosts engine ~host_link [| Soft_switch.node switch |]
      ~per_node:num_hosts
  in
  { engine; hosts; host_links; kind = Plain_openflow { switch } }

let ( let+ ) r f = Result.map f r

(* [num_switches] legacy switches of [per_switch] hosts, each trunked on
   its last port to the SS_1 that [provision] returns for it. *)
let build_fronted engine ~num_switches ~per_switch ~vendor ~host_link ~trunk
    provision =
  let legacies =
    Array.init num_switches (fun m ->
        Legacy_switch.create engine
          ~name:(Printf.sprintf "legacy%d" m)
          ~ports:(per_switch + 1) ())
  in
  let devices = Array.map (fun sw -> Device.create ~switch:sw ~vendor ()) legacies in
  let+ ss1s, kind = provision legacies devices in
  let hosts, host_links =
    attach_hosts engine ~host_link
      (Array.map Legacy_switch.node legacies)
      ~per_node:per_switch
  in
  let trunk_links =
    Array.mapi
      (fun m legacy ->
        Link.connect ~a_to_b:trunk ~b_to_a:trunk
          (Legacy_switch.node legacy, per_switch)
          (Soft_switch.node ss1s.(m), Translator.trunk_port))
      legacies
  in
  { engine; hosts; host_links; kind = kind trunk_links }

let build_harmless engine ~num_hosts ?(vendor = Device.Cisco_like) ?base_vid
    ?dataplane ?pmd ?(host_link = Link.gige) ?(trunk = Link.ten_gige) () =
  build_fronted engine ~num_switches:1 ~per_switch:num_hosts ~vendor ~host_link
    ~trunk (fun legacies devices ->
      let+ prov =
        Manager.provision engine ~device:devices.(0) ~trunk_port:num_hosts
          ~access_ports:(List.init num_hosts Fun.id) ?base_vid ?dataplane ?pmd
          ()
      in
      ( [| prov.Manager.ss1 |],
        fun trunks ->
          Harmless
            {
              legacy = legacies.(0);
              device = devices.(0);
              trunk_link = trunks.(0);
              prov;
            } ))

let build_scaleout engine ~num_switches ~hosts_per_switch
    ?(vendor = Device.Cisco_like) ?dataplane ?pmd ?(host_link = Link.gige)
    ?(trunk = Link.ten_gige) () =
  if num_switches <= 0 || hosts_per_switch <= 0 then
    invalid_arg "Deployment.build_scaleout: sizes must be positive";
  build_fronted engine ~num_switches ~per_switch:hosts_per_switch ~vendor
    ~host_link ~trunk (fun legacies devices ->
      let member device =
        {
          Scaleout.device;
          trunk_port = hosts_per_switch;
          access_ports = List.init hosts_per_switch Fun.id;
        }
      in
      let+ scale =
        Scaleout.provision engine
          ~members:(Array.to_list (Array.map member devices))
          ?dataplane ?pmd ()
      in
      ( scale.Scaleout.server.Server.ss1s,
        fun trunk_links -> Scaled { legacies; devices; trunk_links; scale } ))

let controller_switch t =
  match t.kind with
  | Plain_openflow { switch } -> switch
  | Harmless { prov; _ } -> prov.Manager.ss2
  | Scaled { scale; _ } -> scale.Scaleout.server.Server.ss2
  | Legacy_only _ ->
      invalid_arg "Deployment.controller_switch: legacy-only deployment"

let host t i = t.hosts.(i)
let num_hosts t = Array.length t.hosts
