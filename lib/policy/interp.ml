open Syntax
module Packet = Netpkt.Packet
module Meter_table = Openflow.Meter_table
module Of_action = Openflow.Of_action
module Pipeline = Openflow.Pipeline

type t = { policy : Syntax.t; meters : Meter_table.t }

let collect_meters pol =
  let meters = Meter_table.create () in
  let seen : (int, police) Hashtbl.t = Hashtbl.create 8 in
  let rec go = function
    | Filter _ | Mod _ | Balance _ -> ()
    | Union (a, b) | Seq (a, b) | Orelse (a, b) ->
        go a;
        go b
    | Police p -> (
        match Hashtbl.find_opt seen p.meter_id with
        | None ->
            Hashtbl.add seen p.meter_id p;
            Meter_table.add meters ~id:p.meter_id
              { rate_kbps = p.rate_kbps; burst_kb = p.burst_kb }
        | Some p' ->
            if p' <> p then
              invalid_arg
                (Printf.sprintf
                   "Policy.Interp: meter %d declared with two different bands"
                   p.meter_id))
  in
  go pol;
  meters

let create pol =
  Syntax.check pol;
  { policy = pol; meters = collect_meters pol }

(* One evaluation state: accumulated ghost writes plus pending meter and
   bucket choice. *)
type st = {
  mods : (field * value) list;
  police : police option;
  balance : (field * value) list list option;
}

let init = { mods = []; police = None; balance = None }

let set_mod mods f v =
  (f, v) :: List.filter (fun (f', _) -> compare_field f f' <> 0) mods

let find_mod mods f =
  List.find_map
    (fun (f', v) -> if compare_field f f' = 0 then Some v else None)
    mods

let base_value ~in_port (fl : Packet.Fields.t) =
  let int v = if v = Packet.Fields.absent then None else Some (Int v) in
  let ip v =
    if v = Packet.Fields.absent then None
    else Some (Ip (Netpkt.Ipv4_addr.of_int v))
  in
  function
  | Loc -> Some (At (Phys in_port))
  | Eth_type -> Some (Int fl.eth_type)
  | Vlan_vid -> int fl.vlan_vid
  | Eth_src -> Some (Mac (Netpkt.Mac_addr.of_int fl.eth_src))
  | Eth_dst -> Some (Mac (Netpkt.Mac_addr.of_int fl.eth_dst))
  | Ip_proto -> int fl.ip_proto
  | Ip_src -> ip fl.ip_src
  | Ip_dst -> ip fl.ip_dst
  | Ip_tos -> int fl.ip_tos
  | L4_src -> int fl.l4_src
  | L4_dst -> int fl.l4_dst

let value_of ~base st f =
  match find_mod st.mods f with Some v -> Some v | None -> base f

let rec eval_pred ~base st = function
  | True -> true
  | False -> false
  | Test (f, v) -> (
      match value_of ~base st f with
      | Some v' -> equal_value v v'
      | None -> false)
  | And (a, b) -> eval_pred ~base st a && eval_pred ~base st b
  | Or (a, b) -> eval_pred ~base st a || eval_pred ~base st b
  | Not a -> not (eval_pred ~base st a)

(* Predicates reachable after a balance must be test-free (the compiler
   rejects tests there too); evaluate them statically. *)
let rec pred_static = function
  | True -> Some true
  | False -> Some false
  | Test _ -> None
  | And (a, b) -> (
      match (pred_static a, pred_static b) with
      | Some x, Some y -> Some (x && y)
      | _ -> None)
  | Or (a, b) -> (
      match (pred_static a, pred_static b) with
      | Some x, Some y -> Some (x || y)
      | _ -> None)
  | Not a -> Option.map not (pred_static a)

let after_balance_error () =
  invalid_arg "Policy.Interp: tests or writes after balance"

let rec eval ~base st pol =
  match st.balance with
  | Some _ -> (
      match pol with
      | Filter p -> (
          match pred_static p with
          | Some true -> [ st ]
          | Some false -> []
          | None -> after_balance_error ())
      | Mod _ | Police _ | Balance _ -> after_balance_error ()
      | Union (a, b) -> eval ~base st a @ eval ~base st b
      | Seq (a, b) ->
          List.concat_map (fun st' -> eval ~base st' b) (eval ~base st a)
      | Orelse (a, b) -> (
          match eval ~base st a with [] -> eval ~base st b | r -> r))
  | None -> (
      match pol with
      | Filter p -> if eval_pred ~base st p then [ st ] else []
      | Mod (f, v) -> [ { st with mods = set_mod st.mods f v } ]
      | Union (a, b) -> eval ~base st a @ eval ~base st b
      | Seq (a, b) ->
          List.concat_map (fun st' -> eval ~base st' b) (eval ~base st a)
      | Orelse (a, b) -> (
          match eval ~base st a with [] -> eval ~base st b | r -> r)
      | Police p ->
          if st.police <> None then
            invalid_arg "Policy.Interp: two meters in sequence on one path"
          else [ { st with police = Some p } ]
      | Balance buckets -> [ { st with balance = Some buckets } ])

(* Drop ghost writes that restate what the packet already carries: two
   states that render to the same output packet then also compare equal
   here, so duplicate effects collapse (and meter once, not twice) just
   as the compiled table's deduplicated outputs do. *)
let normalize_st ~base st =
  {
    st with
    mods =
      List.filter
        (fun (f, v) ->
          match base f with Some v' -> not (equal_value v v') | None -> true)
        st.mods;
  }

let compare_mods a b =
  let rec go = function
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | x :: xs, y :: ys ->
        let c = compare_key x y in
        if c <> 0 then c else go (xs, ys)
  in
  go (a, b)

let compare_st a b =
  let c = compare_mods (List.sort compare_key a.mods) (List.sort compare_key b.mods) in
  if c <> 0 then c
  else
    let c = Option.compare Stdlib.compare a.police b.police in
    if c <> 0 then c
    else
      Option.compare
        (fun x y ->
          let rec go = function
            | [], [] -> 0
            | [], _ -> -1
            | _, [] -> 1
            | m :: ms, n :: ns ->
                let c = compare_mods m n in
                if c <> 0 then c else go (ms, ns)
          in
          go (x, y))
        a.balance b.balance

let dedup_states sts =
  List.rev
    (List.fold_left
       (fun acc st ->
         if List.exists (fun st' -> compare_st st st' = 0) acc then acc
         else st :: acc)
       [] sts)

let rewrite_of_mod (f, v) =
  match (f, v) with
  | Eth_src, Mac m -> Some (Of_action.Set_eth_src m)
  | Eth_dst, Mac m -> Some (Of_action.Set_eth_dst m)
  | Ip_src, Ip a -> Some (Of_action.Set_ip_src a)
  | Ip_dst, Ip a -> Some (Of_action.Set_ip_dst a)
  | Ip_tos, Int n -> Some (Of_action.Set_ip_tos n)
  | L4_src, Int n -> Some (Of_action.Set_l4_src n)
  | L4_dst, Int n -> Some (Of_action.Set_l4_dst n)
  | _ -> None

let apply_mods pkt mods =
  List.fold_left
    (fun pkt m ->
      match rewrite_of_mod m with
      | Some act -> Of_action.apply_rewrite act pkt
      | None -> pkt)
    pkt
    (List.sort compare_key mods)

(* A pass renders nothing here: [run] reports it as the table miss. *)
let render pkt st =
  let pre = List.filter (fun (f, _) -> compare_field f Loc <> 0) st.mods in
  let pkt' = apply_mods pkt pre in
  let loc = find_mod st.mods Loc in
  match loc with
  | Some (At (Phys p)) -> [ Pipeline.Port (p, pkt') ]
  | Some (At Flood) -> [ Pipeline.Flood pkt' ]
  | Some (At (Ctrl n)) -> [ Pipeline.Controller (n, pkt') ]
  | Some (At (Disc | Pass)) -> []
  | Some _ -> assert false
  | None -> [ Pipeline.In_port pkt' ]

let passes st =
  match find_mod st.mods Loc with Some (At Pass) -> true | _ -> false

(* Replicates Group_table.select_buckets for a Select group whose buckets
   all have weight 1: cumulative-weight walk over [abs hash mod total]. *)
let pick_bucket buckets ~flow_hash =
  let total = List.length buckets in
  let target = abs flow_hash mod total in
  List.nth buckets target

let run t ~now_ns ~in_port pkt =
  let fl = Packet.Fields.of_packet pkt in
  let base = base_value ~in_port fl in
  let states = eval ~base init t.policy in
  let states = dedup_states (List.map (normalize_st ~base) states) in
  let outputs =
    List.concat_map
      (fun st ->
        let metered_out =
          match st.police with
          | None -> false
          | Some p ->
              Meter_table.apply t.meters ~id:p.meter_id ~now_ns
                ~bytes:(Packet.size pkt)
              = `Drop
        in
        if metered_out then []
        else
          let st =
            match st.balance with
            | None -> st
            | Some buckets ->
                (* The pipeline hashes the packet as it stands when the group
                   action runs, i.e. after this rule's earlier rewrites. *)
                let pre =
                  List.filter (fun (f, _) -> compare_field f Loc <> 0) st.mods
                in
                let hashed = Packet.Fields.of_packet (apply_mods pkt pre) in
                let bucket =
                  pick_bucket buckets ~flow_hash:(Pipeline.flow_hash hashed)
                in
                let mods =
                  List.fold_left
                    (fun mods (f, v) -> set_mod mods f v)
                    st.mods bucket
                in
                { st with balance = None; mods }
          in
          render pkt st)
      states
  in
  (* A pass is reported as the table miss that leaves the packet to the
     table below.  Next to other outputs it has no flow-table encoding,
     and Compile rejects it. *)
  Pipeline.make_result ~outputs ~table_miss:(List.exists passes states)
    ~matched:[]
