open Netpkt
open Openflow

type t = {
  sites : (string * Ipv4_addr.t) list;
  mutable blocked : (Ipv4_addr.t * string) list;
  priority : int;
  mutable dpids : int64 list;
  mutable sniffed_drops : int;
}

let create ?(sites = []) ~blocked ?(priority = 2200) () =
  { sites; blocked; priority; dpids = []; sniffed_drops = 0 }

let is_blocked t ~user ~host =
  List.exists
    (fun (u, h) -> Ipv4_addr.equal u user && String.equal h host)
    t.blocked

let blocked_list t = t.blocked
let sniffed_drops t = t.sniffed_drops

let site_ip t host =
  List.find_map
    (fun (h, ip) -> if String.equal h host then Some ip else None)
    t.sites

let drop_match ~user ~site =
  Of_match.(
    any
    |> eth_type 0x0800
    |> ip_proto 6
    |> ip_src (Ipv4_addr.Prefix.make user 32)
    |> ip_dst (Ipv4_addr.Prefix.make site 32)
    |> l4_dst 80)

let sniff_match ~user =
  Of_match.(
    any
    |> eth_type 0x0800
    |> ip_proto 6
    |> ip_src (Ipv4_addr.Prefix.make user 32)
    |> l4_dst 80)

(* Users with at least one blocked host we cannot resolve need the
   controller to see their HTTP requests. *)
let needs_sniffing t user =
  List.exists
    (fun (u, h) -> Ipv4_addr.equal u user && Option.is_none (site_ip t h))
    t.blocked

let messages_for_user t user =
  List.filter_map
    (fun (u, host) ->
      if Ipv4_addr.equal u user then
        match site_ip t host with
        | Some site ->
            Some
              (Of_message.Flow_mod
                 (Of_message.add_flow ~priority:t.priority
                    ~match_:(drop_match ~user ~site)
                    [ Flow_entry.Apply_actions [ Of_action.Drop ] ]))
        | None -> None
      else None)
    t.blocked
  @
  if needs_sniffing t user then
    [
      Of_message.Flow_mod
        (Of_message.add_flow ~priority:(t.priority - 100)
           ~match_:(sniff_match ~user)
           [
             Flow_entry.Apply_actions
               [ Of_action.Output (Of_action.Controller 0) ];
           ]);
    ]
  else []

let users t = List.sort_uniq Ipv4_addr.compare (List.map fst t.blocked)

let messages t = List.concat_map (messages_for_user t) (users t)

let install_for_user t ctrl dpid user =
  Controller.send_all ctrl dpid (messages_for_user t user)

let install_all t ctrl dpid = List.iter (install_for_user t ctrl dpid) (users t)

let blocked_pred t =
  let open Policy.Syntax in
  disj
    (List.concat_map
       (fun user ->
         List.filter_map
           (fun (u, host) ->
             if Ipv4_addr.equal u user then
               Option.map
                 (fun site ->
                   conj
                     [
                       eth_type_is 0x0800;
                       ip_proto_is 6;
                       ip_src_is user;
                       ip_dst_is site;
                       l4_dst_is 80;
                     ])
                 (site_ip t host)
             else None)
           t.blocked)
       (users t))

let sniff_pred t =
  let open Policy.Syntax in
  disj
    (List.filter_map
       (fun user ->
         if needs_sniffing t user then
           Some
             (conj
                [
                  eth_type_is 0x0800;
                  ip_proto_is 6;
                  ip_src_is user;
                  l4_dst_is 80;
                ])
         else None)
       (users t))

let fragment t =
  let open Policy.Syntax in
  (* Proactive drops are absence; only the sniff path emits — guarded by
     the drops, which outrank it in the hand-written table. *)
  seq
    (filter (And (Not (blocked_pred t), sniff_pred t)))
    (to_controller ())

let app t =
  let switch_up ctrl dpid =
    t.dpids <- dpid :: t.dpids;
    install_all t ctrl dpid
  in
  let packet_in ctrl dpid ~in_port _reason (pkt : Packet.t) =
    match pkt.Packet.l3 with
    | Packet.Ip { Ipv4.src; payload = Ipv4.Tcp seg; _ } when seg.Tcp.dst_port = 80
      -> (
        match Http_lite.host_of_payload seg.Tcp.payload with
        | Some host when is_blocked t ~user:src ~host ->
            t.sniffed_drops <- t.sniffed_drops + 1;
            (* Pin the verdict so later packets of this flow drop in the
               dataplane. *)
            (match pkt.Packet.l3 with
            | Packet.Ip { Ipv4.dst; _ } ->
                Controller.install ctrl dpid
                  (Of_message.add_flow ~priority:t.priority
                     ~match_:(drop_match ~user:src ~site:dst)
                     [ Flow_entry.Apply_actions [ Of_action.Drop ] ])
            | Packet.Arp _ | Packet.Raw _ -> ());
            true (* consumed: the request dies here *)
        | Some _ | None ->
            (* Allowed (or unparseable): hand on so the L2 base app
               forwards it. *)
            ignore ctrl;
            ignore in_port;
            false)
    | Packet.Ip _ | Packet.Arp _ | Packet.Raw _ -> false
  in
  { (Controller.no_op_app "parental-control") with Controller.switch_up; packet_in }

let reinstall t ctrl =
  List.iter (fun dpid -> install_all t ctrl dpid) t.dpids

let block t ctrl ~user ~host =
  if not (is_blocked t ~user ~host) then begin
    t.blocked <- (user, host) :: t.blocked;
    List.iter
      (fun dpid ->
        match site_ip t host with
        | Some site ->
            Controller.install ctrl dpid
              (Of_message.add_flow ~priority:t.priority
                 ~match_:(drop_match ~user ~site)
                 [ Flow_entry.Apply_actions [ Of_action.Drop ] ])
        | None ->
            Controller.install ctrl dpid
              (Of_message.add_flow ~priority:(t.priority - 100)
                 ~match_:(sniff_match ~user)
                 [ Flow_entry.Apply_actions [ Of_action.Output (Of_action.Controller 0) ] ]))
      t.dpids
  end

let unblock t ctrl ~user ~host =
  if is_blocked t ~user ~host then begin
    t.blocked <-
      List.filter
        (fun (u, h) -> not (Ipv4_addr.equal u user && String.equal h host))
        t.blocked;
    List.iter
      (fun dpid ->
        (match site_ip t host with
        | Some site ->
            Controller.install ctrl dpid
              (Of_message.delete_flow ~strict:true ~priority:t.priority
                 (drop_match ~user ~site))
        | None -> ());
        if not (needs_sniffing t user) then
          Controller.install ctrl dpid
            (Of_message.delete_flow ~strict:true ~priority:(t.priority - 100)
               (sniff_match ~user)))
      t.dpids;
    reinstall t ctrl
  end
