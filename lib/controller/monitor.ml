open Netpkt
open Openflow

type t = {
  pairs : (Ipv4_addr.t * Ipv4_addr.t) list;
  mutable dpids : int64 list;
  (* One stats poller per datapath — the single source of counter truth.
     The matrix below is a *view* over the pollers' latest flow-stats
     replies; the monitor keeps no books of its own. *)
  pollers : (int64, Stats_poller.t) Hashtbl.t;
}

(* Accounting rules live in table 0 and hand off to the forwarding
   table 1.  They sit above every other table-0 rule, compiled or
   pinned, so each tracked packet is counted. *)
let table = 0
let forward_table = 1
let priority = Policy.Compile.ceiling + 2

let create ~pairs () = { pairs; dpids = []; pollers = Hashtbl.create 4 }

let pair_match (src, dst) =
  Of_match.(
    any
    |> eth_type 0x0800
    |> ip_src (Ipv4_addr.Prefix.make src 32)
    |> ip_dst (Ipv4_addr.Prefix.make dst 32))

let app t =
  let switch_up ctrl dpid =
    t.dpids <- dpid :: t.dpids;
    List.iter
      (fun pair ->
        Controller.install ctrl dpid
          (Of_message.add_flow ~table_id:table ~priority
             ~match_:(pair_match pair)
             [ Flow_entry.Goto_table forward_table ]))
      t.pairs;
    (* everything untracked also continues to the forwarding table *)
    Controller.install ctrl dpid
      (Of_message.add_flow ~table_id:table ~priority:1 ~match_:Of_match.any
         [ Flow_entry.Goto_table forward_table ])
  in
  { (Controller.no_op_app "monitor") with Controller.switch_up }

let poller_for t ctrl dpid =
  match Hashtbl.find_opt t.pollers dpid with
  | Some p -> p
  | None ->
      let p = Stats_poller.create ctrl dpid in
      Hashtbl.replace t.pollers dpid p;
      p

let poller t dpid = Hashtbl.find_opt t.pollers dpid

let poll t ctrl =
  List.iter (fun dpid -> Stats_poller.poll_now (poller_for t ctrl dpid)) t.dpids

let start_polling t ctrl engine ~period ~rounds =
  for i = 1 to rounds do
    Simnet.Engine.schedule_after engine (i * period) (fun () -> poll t ctrl)
  done

let matrix t =
  List.map
    (fun pair ->
      let m = pair_match pair in
      (* Flow counters are monotonic, so across pollers (and replies) the
         entry with the most packets is the freshest view of this pair. *)
      let best =
        Hashtbl.fold
          (fun _ p acc ->
            List.fold_left
              (fun acc (s : Of_message.flow_stat) ->
                if
                  s.Of_message.stat_table_id = table
                  && Of_match.equal s.Of_message.stat_match m
                  && s.Of_message.stat_packets >= fst acc
                then (s.Of_message.stat_packets, s.Of_message.stat_bytes)
                else acc)
              acc (Stats_poller.latest_flows p))
          t.pollers (0, 0)
      in
      (pair, best))
    t.pairs

let polls_completed t =
  Hashtbl.fold (fun _ p acc -> acc + Stats_poller.flow_replies p) t.pollers 0
