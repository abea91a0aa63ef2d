open Netpkt
module P = Openflow.Pipeline
module FE = Openflow.Flow_entry
module FT = Openflow.Flow_table
module A = Openflow.Of_action
module M = Openflow.Of_match

(* Spec-literal matching, read straight off the frame's own headers and
   options rather than through {!Packet.Fields}: a witness independent of
   the int encoding that Linear, the OVS upcall and the ESwitch residual
   path share through {!Openflow.Of_match.matches}.  A test on a header
   the frame lacks fails. *)
let matches (m : M.t) ~in_port (pkt : Packet.t) =
  let test opt holds = match opt with None -> true | Some x -> holds x in
  let tag = match pkt.Packet.vlans with [] -> None | tag :: _ -> Some tag in
  let ip = match pkt.Packet.l3 with Packet.Ip ip -> Some ip | _ -> None in
  let ports =
    match ip with
    | Some { Ipv4.payload = Ipv4.Tcp seg; _ } -> Some (seg.Tcp.src_port, seg.Tcp.dst_port)
    | Some { Ipv4.payload = Ipv4.Udp d; _ } -> Some (d.Udp.src_port, d.Udp.dst_port)
    | Some _ | None -> None
  in
  let proto = function
    | Ipv4.Tcp _ -> 6
    | Ipv4.Udp _ -> 17
    | Ipv4.Icmp _ -> 1
    | Ipv4.Raw (p, _) -> p
  in
  let mac_test actual (t : M.mac_test) =
    let a = Mac_addr.to_bytes actual
    and v = Mac_addr.to_bytes t.M.value
    and k = Mac_addr.to_bytes t.M.mask in
    List.for_all
      (fun i ->
        Char.code a.[i] land Char.code k.[i] = Char.code v.[i] land Char.code k.[i])
      [ 0; 1; 2; 3; 4; 5 ]
  in
  let on_ip get expected =
    match ip with Some ip -> get ip = expected | None -> false
  in
  test m.M.in_port (fun p -> p = in_port)
  && test m.M.eth_dst (mac_test pkt.Packet.dst)
  && test m.M.eth_src (mac_test pkt.Packet.src)
  && test m.M.eth_type (fun ty -> ty = Ethertype.to_int (Packet.ethertype pkt))
  && test m.M.vlan (fun v ->
         match (v, tag) with
         | M.Absent, None | M.Present, Some _ -> true
         | M.Vid vid, Some tag -> tag.Vlan.vid = vid
         | (M.Absent | M.Present | M.Vid _), _ -> false)
  && test m.M.vlan_pcp (fun pcp ->
         match tag with Some tag -> tag.Vlan.pcp = pcp | None -> false)
  && test m.M.ip_src (fun prefix ->
         match ip with
         | Some ip -> Ipv4_addr.Prefix.mem ip.Ipv4.src prefix
         | None -> false)
  && test m.M.ip_dst (fun prefix ->
         match ip with
         | Some ip -> Ipv4_addr.Prefix.mem ip.Ipv4.dst prefix
         | None -> false)
  && test m.M.ip_proto (on_ip (fun ip -> proto ip.Ipv4.payload))
  && test m.M.ip_tos (on_ip (fun ip -> ip.Ipv4.tos))
  && test m.M.l4_src (fun p ->
         match ports with Some (src, _) -> src = p | None -> false)
  && test m.M.l4_dst (fun p ->
         match ports with Some (_, dst) -> dst = p | None -> false)

let classify pipeline ~table_id ~in_port pkt =
  (* Exhaustive scan; first entry of the highest matching priority wins
     (Flow_table keeps insertion order within a priority, and so does
     this fold: a later entry replaces the champion only when strictly
     better). *)
  List.fold_left
    (fun best (e : FE.t) ->
      if not (matches e.FE.match_ ~in_port pkt) then best
      else
        match best with
        | Some (b : FE.t) when b.FE.priority >= e.FE.priority -> best
        | _ -> Some e)
    None
    (FT.entries (P.table pipeline table_id))

(* The deferred action set, spec-literal: at most one action per kind.
   Rewrites apply in the order they were (last) written — writing a kind
   again moves it to the end — and the optional output/group runs after
   every rewrite. *)

let kind_tag = function
  | A.Set_vlan_vid _ -> 0
  | A.Set_vlan_pcp _ -> 1
  | A.Set_eth_src _ -> 2
  | A.Set_eth_dst _ -> 3
  | A.Set_ip_src _ -> 4
  | A.Set_ip_dst _ -> 5
  | A.Set_ip_tos _ -> 6
  | A.Set_l4_src _ -> 7
  | A.Set_l4_dst _ -> 8
  | A.Push_vlan -> 9
  | A.Pop_vlan -> 10
  | A.Output _ -> 11
  | A.Group _ -> 12
  | A.Drop -> 13

type action_set = {
  mutable writes : (int * A.t) list; (* application order *)
  mutable final : A.t option;        (* Output or Group *)
}

let write_to set action =
  match action with
  | A.Output _ | A.Group _ -> set.final <- Some action
  | A.Drop ->
      set.writes <- [];
      set.final <- None
  | rewrite ->
      let k = kind_tag rewrite in
      set.writes <-
        List.filter (fun (k', _) -> k' <> k) set.writes @ [ (k, rewrite) ]

let execute pipeline ~now_ns ~in_port pkt =
  let outputs = ref [] in
  let matched = ref [] in
  let miss = ref false in
  let emit o = outputs := o :: !outputs in
  (* [entered]: group ids currently being executed, to cut group
     chaining loops — same contract as the production executor. *)
  let rec apply_actions ~entered pkt actions =
    match actions with
    | [] -> pkt
    | A.Output target :: rest ->
        emit
          (match target with
          | A.Physical p -> P.Port (p, pkt)
          | A.In_port -> P.In_port pkt
          | A.Flood -> P.Flood pkt
          | A.All -> P.All_ports pkt
          | A.Controller n -> P.Controller (n, pkt));
        apply_actions ~entered pkt rest
    | A.Group gid :: rest ->
        if not (List.mem gid entered) then begin
          let hash = P.flow_hash (Packet.Fields.of_packet pkt) in
          match
            Openflow.Group_table.select_buckets (P.groups pipeline) ~id:gid
              ~flow_hash:hash
          with
          | buckets ->
              (* Each bucket starts from the packet as it reached the
                 group; bucket-local rewrites do not leak out. *)
              List.iter
                (fun (b : Openflow.Group_table.bucket) ->
                  ignore
                    (apply_actions ~entered:(gid :: entered) pkt
                       b.Openflow.Group_table.actions))
                buckets
          | exception Not_found -> ()
        end;
        apply_actions ~entered pkt rest
    | A.Drop :: rest -> apply_actions ~entered pkt rest
    | rewrite :: rest ->
        apply_actions ~entered (A.apply_rewrite rewrite pkt) rest
  in
  let apply_actions pkt actions = apply_actions ~entered:[] pkt actions in
  let set = { writes = []; final = None } in
  let finish pkt =
    let pkt =
      List.fold_left (fun p (_, a) -> A.apply_rewrite a p) pkt set.writes
    in
    match set.final with
    | None -> ()
    | Some final -> ignore (apply_actions pkt [ final ])
  in
  let rec walk table_id pkt =
    if table_id >= P.num_tables pipeline then finish pkt
    else
      match classify pipeline ~table_id ~in_port pkt with
      | None ->
          (* A miss ends the walk but the action set accumulated so far
             still runs — same as the production executor. *)
          miss := true;
          finish pkt
      | Some entry ->
          FE.touch entry ~now_ns ~bytes:(Packet.size pkt);
          matched := entry :: !matched;
          let pkt = ref pkt in
          let goto = ref None in
          let policed_out = ref false in
          List.iter
            (fun instruction ->
              if not !policed_out then
                match instruction with
                | FE.Apply_actions actions ->
                    pkt := apply_actions !pkt actions
                | FE.Write_actions actions -> List.iter (write_to set) actions
                | FE.Clear_actions ->
                    set.writes <- [];
                    set.final <- None
                | FE.Goto_table n -> goto := Some n
                | FE.Meter id -> (
                    match
                      Openflow.Meter_table.apply (P.meters pipeline) ~id
                        ~now_ns ~bytes:(Packet.size !pkt)
                    with
                    | `Pass -> ()
                    | `Drop -> policed_out := true))
            entry.FE.instructions;
          (* A metered-out packet stops dead: later instructions were
             already skipped, and the action set never runs — but outputs
             emitted before the meter stand. *)
          if not !policed_out then
            match !goto with
            | Some next when next > table_id -> walk next !pkt
            | Some _ | None -> finish !pkt
  in
  walk 0 pkt;
  P.make_result ~outputs:(List.rev !outputs) ~table_miss:!miss
    ~matched:(List.rev !matched)

let dataplane pipeline =
  {
    Softswitch.Dataplane.name = "oracle";
    process = execute pipeline;
    stats = (fun () -> []);
    tier = (fun () -> "oracle");
  }
