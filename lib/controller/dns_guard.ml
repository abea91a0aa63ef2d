open Netpkt
open Openflow

type t = {
  blocked : (Ipv4_addr.t * string) list;
  mutable bindings : (string * Ipv4_addr.t) list; (* newest first *)
  mutable installed : (Ipv4_addr.t * Ipv4_addr.t) list; (* (user, addr) *)
}

(* Both above the compiled band: the snoop copies every DNS response
   before any compiled decision, and a pinned drop outranks the snoop. *)
let snoop_priority = Policy.Compile.ceiling
let drop_priority = Policy.Compile.ceiling + 1

let create ~blocked () = { blocked; bindings = []; installed = [] }

let bindings t = List.rev t.bindings
let blocks_installed t = List.length t.installed

let block_rule t ctrl dpid ~user ~addr =
  let already =
    List.exists
      (fun (u, a) -> Ipv4_addr.equal u user && Ipv4_addr.equal a addr)
      t.installed
  in
  if not already then begin
    t.installed <- (user, addr) :: t.installed;
    Controller.install ctrl dpid
      (Of_message.add_flow ~priority:drop_priority
         ~match_:
           Of_match.(
             any
             |> eth_type 0x0800
             |> ip_src (Ipv4_addr.Prefix.make user 32)
             |> ip_dst (Ipv4_addr.Prefix.make addr 32))
         [ Flow_entry.Apply_actions [ Of_action.Drop ] ])
  end

let app t =
  let switch_up ctrl dpid =
    (* Copy DNS responses to the controller; the original continues
       through the forwarding table. *)
    Controller.install ctrl dpid
      (Of_message.add_flow ~priority:snoop_priority
         ~match_:
           Of_match.(any |> eth_type 0x0800 |> ip_proto 17 |> l4_src Dns_lite.server_port)
         [
           Flow_entry.Apply_actions [ Of_action.Output (Of_action.Controller 0) ];
           Flow_entry.Goto_table 1;
         ]);
    Controller.install ctrl dpid
      (Of_message.add_flow ~priority:1 ~match_:Of_match.any
         [ Flow_entry.Goto_table 1 ])
  in
  let packet_in ctrl dpid ~in_port:_ _reason (pkt : Packet.t) =
    match pkt.Packet.l3 with
    | Packet.Ip { Ipv4.payload = Ipv4.Udp dgram; _ }
      when dgram.Udp.src_port = Dns_lite.server_port -> (
        match
          try Some (Dns_lite.decode dgram.Udp.payload)
          with Wire.Truncated _ | Wire.Malformed _ -> None
        with
        | Some msg when msg.Dns_lite.response ->
            List.iter
              (fun (a : Dns_lite.answer) ->
                t.bindings <- (a.Dns_lite.name, a.Dns_lite.addr) :: t.bindings;
                (* The name is now resolvable: fence off every user who is
                   blocked from it, whoever asked. *)
                List.iter
                  (fun (user, host) ->
                    if
                      String.lowercase_ascii host
                      = String.lowercase_ascii a.Dns_lite.name
                    then block_rule t ctrl dpid ~user ~addr:a.Dns_lite.addr)
                  t.blocked)
              msg.Dns_lite.answers;
            true
        | Some _ | None -> false)
    | Packet.Ip _ | Packet.Arp _ | Packet.Raw _ -> false
  in
  { (Controller.no_op_app "dns-guard") with Controller.switch_up; packet_in }
