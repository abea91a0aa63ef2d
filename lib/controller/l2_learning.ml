open Netpkt
open Openflow
module Mac_table = Ethswitch.Mac_table

(* Below the compiled band: a compiled table's decisions outrank learned
   MACs in the same table. *)
let priority = Policy.Compile.base - 1000

let create ?(idle_timeout_s = 300) () =
  (* One learner per datapath, aged like the rules it installs. *)
  let tables : (int64, Mac_table.t) Hashtbl.t = Hashtbl.create 8 in
  let table dpid =
    match Hashtbl.find tables dpid with
    | macs -> macs
    | exception Not_found ->
        let macs = Mac_table.create ~aging:(Simnet.Sim_time.s idle_timeout_s) () in
        Hashtbl.add tables dpid macs;
        macs
  in
  let packet_in ctrl dpid ~in_port _reason (pkt : Packet.t) =
    let macs = table dpid and now = Simnet.Engine.now (Controller.engine ctrl) in
    Mac_table.learn macs ~now ~vlan:0 ~mac:pkt.Packet.src ~port:in_port;
    let out_port =
      if Mac_addr.is_unicast pkt.Packet.dst then
        Mac_table.lookup macs ~now ~vlan:0 ~mac:pkt.Packet.dst
      else -1
    in
    if out_port >= 0 then begin
      Controller.install ctrl dpid
        (Of_message.add_flow ~priority ~idle_timeout_s
           ~match_:Of_match.(any |> eth_dst pkt.Packet.dst)
           [ Flow_entry.Apply_actions [ Of_action.output out_port ] ]);
      Controller.packet_out ctrl dpid ~in_port
        ~actions:[ Of_action.output out_port ] pkt
    end
    else
      Controller.packet_out ctrl dpid ~in_port
        ~actions:[ Of_action.Output Of_action.Flood ] pkt;
    true
  in
  let port_status ctrl dpid ~port ~up =
    if not up then begin
      (* Forget everything learned behind the dead port and withdraw the
         flows that output to it; affected destinations re-flood. *)
      Mac_table.flush_port (table dpid) ~port;
      Controller.install ctrl dpid
        (Of_message.delete_flow ~out_port:port Of_match.any)
    end
  in
  { (Controller.no_op_app "l2-learning") with Controller.packet_in; port_status }
