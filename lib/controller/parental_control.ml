open Netpkt
open Openflow

(* The deny list, with the site table that resolves it. *)
type deny = {
  sites : (string * Ipv4_addr.t) list;
  blocked : (Ipv4_addr.t * string) list;
}

type t = {
  mutable deny : deny;
  mutable table : Policy.Compile.t; (* the compile of [deny] *)
  mutable dpids : int64 list;
}

let is_blocked t ~user ~host =
  List.exists
    (fun (u, h) -> Ipv4_addr.equal u user && String.equal h host)
    t.deny.blocked

let site_ip d host =
  List.find_map
    (fun (h, ip) -> if String.equal h host then Some ip else None)
    d.sites

let http_of user =
  let open Policy.Syntax in
  [ eth_type_is 0x0800; ip_proto_is 6; ip_src_is user; l4_dst_is 80 ]

let blocked d =
  let open Policy.Syntax in
  disj
    (List.filter_map
       (fun (user, host) ->
         Option.map
           (fun site -> conj (ip_dst_is site :: http_of user))
           (site_ip d host))
       d.blocked)

(* Users with a blocked host we cannot resolve need the controller to see
   their HTTP requests. *)
let sniffed d =
  Policy.Syntax.disj
    (List.filter_map
       (fun (user, host) ->
         if Option.is_none (site_ip d host) then
           Some (Policy.Syntax.conj (http_of user))
         else None)
       d.blocked)

let policy d =
  let open Policy.Syntax in
  orelses
    [
      seq (filter (blocked d)) discard;
      seq (filter (sniffed d)) (to_controller ());
      pass;
    ]

let blocked_pred t = blocked t.deny
let sniff_pred t = sniffed t.deny
let fragment t = policy t.deny

let create ?(sites = []) ~blocked () =
  let deny = { sites; blocked } in
  { deny; table = Policy.Compile.compile (policy deny); dpids = [] }

let app t =
  let switch_up ctrl dpid =
    t.dpids <- dpid :: t.dpids;
    Controller.send_all ctrl dpid (Policy.Compile.messages t.table)
  in
  let packet_in ctrl dpid ~in_port:_ _reason (pkt : Packet.t) =
    match pkt.Packet.l3 with
    | Packet.Ip { Ipv4.src; dst; payload = Ipv4.Tcp seg; _ }
      when seg.Tcp.dst_port = 80 -> (
        match Http_lite.host_of_payload seg.Tcp.payload with
        | Some host when is_blocked t ~user:src ~host ->
            (* Pin the verdict above the compiled band, so later packets
               of this flow drop in the dataplane. *)
            Controller.install ctrl dpid
              (Of_message.add_flow ~priority:Policy.Compile.ceiling
                 ~match_:
                   Of_match.(
                     any
                     |> eth_type 0x0800
                     |> ip_proto 6
                     |> ip_src (Ipv4_addr.Prefix.make src 32)
                     |> ip_dst (Ipv4_addr.Prefix.make dst 32)
                     |> l4_dst 80)
                 [ Flow_entry.Apply_actions [ Of_action.Drop ] ]);
            true (* consumed: the request dies here *)
        | Some _ | None ->
            (* Allowed (or unparseable): hand on so the L2 base app
               forwards it. *)
            false)
    | Packet.Ip _ | Packet.Arp _ | Packet.Raw _ -> false
  in
  { (Controller.no_op_app "parental-control") with Controller.switch_up; packet_in }

(* Move every connected switch from the current compile to that of
   [blocked]. *)
let update t ctrl blocked =
  let old = t.table in
  t.deny <- { t.deny with blocked };
  t.table <- Policy.Compile.compile (policy t.deny);
  let msgs = Policy.Compile.diff ~old t.table in
  List.iter (fun dpid -> Controller.send_all ctrl dpid msgs) t.dpids

let block t ctrl ~user ~host =
  if not (is_blocked t ~user ~host) then
    update t ctrl ((user, host) :: t.deny.blocked)

let unblock t ctrl ~user ~host =
  if is_blocked t ~user ~host then
    update t ctrl
      (List.filter
         (fun (u, h) -> not (Ipv4_addr.equal u user && String.equal h host))
         t.deny.blocked)
