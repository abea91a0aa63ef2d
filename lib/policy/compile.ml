open Syntax
module Of_match = Openflow.Of_match
module Of_action = Openflow.Of_action
module Of_message = Openflow.Of_message
module Flow_entry = Openflow.Flow_entry
module Flow_table = Openflow.Flow_table
module Group_table = Openflow.Group_table
module Meter_table = Openflow.Meter_table
module Pipeline = Openflow.Pipeline

type t = {
  table_id : int;
  flow_mods : Of_message.flow_mod list;
  group_mods : Of_message.group_mod list;
  meter_mods : Of_message.meter_mod list;
}

let base = 2000
let ceiling = 32_000

let collect_meter_mods fdd =
  let seen : (int, police) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun acts ->
      List.iter
        (fun (a : Fdd.Act.t) ->
          Option.iter
            (fun (p : police) ->
              match Hashtbl.find_opt seen p.meter_id with
              | None -> Hashtbl.add seen p.meter_id p
              | Some p' ->
                  if p' <> p then
                    invalid_arg
                      (Printf.sprintf
                         "Policy.Compile: meter %d declared with two \
                          different bands"
                         p.meter_id))
            a.police)
        acts)
    (Fdd.leaves fdd);
  Hashtbl.fold (fun id (p : police) acc -> (id, p) :: acc) seen []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map (fun (id, (p : police)) ->
         Of_message.Add_meter
           { id; band = { Meter_table.rate_kbps = p.rate_kbps; burst_kb = p.burst_kb } })

let refine match_ f v =
  match (f, v) with
  | Loc, At (Phys p) -> Of_match.in_port p match_
  | Eth_type, Int n -> Of_match.eth_type n match_
  | Vlan_vid, Int n -> Of_match.vid n match_
  | Eth_src, Mac m -> Of_match.eth_src m match_
  | Eth_dst, Mac m -> Of_match.eth_dst m match_
  | Ip_src, Ip a ->
      Of_match.ip_src (Netpkt.Ipv4_addr.Prefix.make a 32) match_
  | Ip_dst, Ip a ->
      Of_match.ip_dst (Netpkt.Ipv4_addr.Prefix.make a 32) match_
  | Ip_proto, Int n -> Of_match.ip_proto n match_
  | Ip_tos, Int n -> Of_match.ip_tos n match_
  | L4_src, Int n -> Of_match.l4_src n match_
  | L4_dst, Int n -> Of_match.l4_dst n match_
  | _ ->
      (* Syntax.check admits no other test shapes. *)
      assert false

(* Structurally identical groups are shared via a rendered key. *)
type group_alloc = {
  mutable next_id : int;
  tbl : (string, int) Hashtbl.t;
  mutable mods_rev : Of_message.group_mod list;
}

let group_key gtype buckets =
  let b = Buffer.create 64 in
  Buffer.add_string b
    (match gtype with
    | Group_table.All -> "all"
    | Group_table.Select -> "select"
    | Group_table.Indirect -> "indirect");
  List.iter
    (fun (bk : Group_table.bucket) ->
      Buffer.add_string b
        (Format.asprintf "|w%d:%a" bk.weight Of_action.pp_list bk.actions))
    buckets;
  Buffer.contents b

let alloc_group ga gtype buckets =
  let key = group_key gtype buckets in
  match Hashtbl.find_opt ga.tbl key with
  | Some id -> id
  | None ->
      let id = ga.next_id in
      ga.next_id <- id + 1;
      Hashtbl.add ga.tbl key id;
      ga.mods_rev <-
        Of_message.Add_group { id; gtype; buckets } :: ga.mods_rev;
      id

let rewrite_of_mod (f, v) =
  match (f, v) with
  | Eth_src, Mac m -> Of_action.Set_eth_src m
  | Eth_dst, Mac m -> Of_action.Set_eth_dst m
  | Ip_src, Ip a -> Of_action.Set_ip_src a
  | Ip_dst, Ip a -> Of_action.Set_ip_dst a
  | Ip_tos, Int n -> Of_action.Set_ip_tos n
  | L4_src, Int n -> Of_action.Set_l4_src n
  | L4_dst, Int n -> Of_action.Set_l4_dst n
  | _ ->
      (* Loc handled separately; Syntax.check admits nothing else. *)
      assert false

let rewrites_of_mods mods =
  List.filter_map
    (fun ((f, _) as m) ->
      if compare_field f Loc = 0 then None else Some (rewrite_of_mod m))
    mods

let output_of_loc = function
  | Some (Phys p) -> [ Of_action.Output (Of_action.Physical p) ]
  | Some Flood -> [ Of_action.Output Of_action.Flood ]
  | Some (Ctrl n) -> [ Of_action.Output (Of_action.Controller n) ]
  | Some Disc -> [ Of_action.Drop ]
  | Some Pass ->
      (* [reject_pass] and Syntax.check leave no pass to encode. *)
      assert false
  | None -> [ Of_action.Output Of_action.In_port ]

let balance_group ga ~outer_loc buckets =
  let gbuckets =
    List.map
      (fun mods ->
        let loc =
          match
            List.find_map
              (fun (f, v) ->
                if compare_field f Loc = 0 then
                  match v with At l -> Some l | _ -> None
                else None)
              mods
          with
          | Some l -> Some l
          | None -> outer_loc
        in
        {
          Group_table.weight = 1;
          actions = rewrites_of_mods mods @ output_of_loc loc;
        })
      buckets
  in
  alloc_group ga Group_table.Select gbuckets

(* Actions of one leaf action, for use inside an [All] bucket: rewrites,
   then either a chained select group or the output. *)
let actions_of_act ga (a : Fdd.Act.t) =
  let sets = rewrites_of_mods a.mods in
  match (a.balance, Fdd.Act.loc a) with
  | Some buckets, outer_loc ->
      let gid = balance_group ga ~outer_loc buckets in
      sets @ [ Of_action.Group gid ]
  | None, Some Disc ->
      (* Rewrites on a discarded packet are unobservable — don't emit
         them. *)
      [ Of_action.Drop ]
  | None, loc -> sets @ output_of_loc loc

let instructions_of_leaf ga acts =
  match acts with
  | [] -> [ Flow_entry.Apply_actions [ Of_action.Drop ] ]
  | [ (a : Fdd.Act.t) ] ->
      let meter =
        match a.police with
        | Some p -> [ Flow_entry.Meter p.meter_id ]
        | None -> []
      in
      meter @ [ Flow_entry.Apply_actions (actions_of_act ga a) ]
  | many ->
      if List.exists (fun (a : Fdd.Act.t) -> a.police <> None) many then
        invalid_arg
          "Policy.Compile: a meter inside a multi-action leaf has no \
           flow-rule encoding";
      let buckets =
        List.map
          (fun a -> { Group_table.weight = 1; actions = actions_of_act ga a })
          many
      in
      let gid = alloc_group ga Group_table.All buckets in
      [ Flow_entry.Apply_actions [ Of_action.Group gid ] ]

(* ---- redundant-rule elimination ----

   The DFS enumerates one rule per decision-tree {e path}, so a subtree
   the diagram shares (the DAG keeps one copy) is re-emitted under every
   prefix that reaches it — e.g. an L2 band repeated under each in-port
   arm.  Most of those copies are redundant under first-match semantics:
   the packets they capture fall through to an identical later rule.

   The diagram itself decides removability exactly.  For rule [i], the
   packets that actually reach it are [match_i ∧ ¬shadow_i] (shadow = any
   higher-priority match); the rule is redundant iff the kept suffix
   below it treats that set identically to the rule's own leaf.  Both
   sides are FDDs, so the test is one hash-consed pointer comparison.
   Scanning bottom-up keeps the general (widest-reach) copy of a
   duplicated band and discards the specialized re-emissions above it.

   Soundness does not rest on the scan alone: [verify] re-folds the kept
   rules into an FDD under first-match semantics and demands structural
   equality with the source diagram, falling back to the unminimized
   table if the check ever failed. *)

type proto_rule = { keys : Fdd.key list; match_ : Of_match.t; acts : Fdd.Act.t list }

let pred_of_keys keys =
  List.fold_left (fun acc k -> Fdd.prod acc (Fdd.atom k)) Fdd.id keys

(* First-match choice as an FDD: where [pred] holds use [then_], else
   [else_]. *)
let ite pred then_ else_ =
  Fdd.sum (Fdd.prod pred then_) (Fdd.prod (Fdd.negate pred) else_)

let minimize ~floor target rules =
  (* [target] is the observable ({!Fdd.strip_disc}) diagram the rules were
     extracted from, so leaf comparisons here are already modulo
     discard.  [floor] is what a packet no kept rule matches gets: the
     catch-all drop, or the table miss of a policy ending in pass. *)
  let rules_arr = Array.of_list rules in
  let n = Array.length rules_arr in
  (* shadow.(i): a higher-priority rule matches.  Computed against the
     full emission; only ever an over-approximation for rules considered
     later in the bottom-up scan, which is the sound direction (a packet
     excluded here was proven unchanged when its capturing rule was
     removed). *)
  let shadow = Array.make (n + 1) Fdd.drop in
  for i = 0 to n - 1 do
    shadow.(i + 1) <- Fdd.sum shadow.(i) (pred_of_keys rules_arr.(i).keys)
  done;
  let kept = ref [] in
  let suffix = ref floor in
  for i = n - 1 downto 0 do
    let r = rules_arr.(i) in
    let reach =
      Fdd.prod (pred_of_keys r.keys) (Fdd.negate shadow.(i))
    in
    let leaf = Fdd.leaf r.acts in
    if Fdd.equal (Fdd.prod reach !suffix) (Fdd.prod reach leaf) then ()
    else begin
      kept := r :: !kept;
      suffix := ite (pred_of_keys r.keys) leaf !suffix
    end
  done;
  if Fdd.equal !suffix target then !kept else rules

let pass_leaf = Fdd.leaf [ Fdd.Act.make [ (Loc, At Pass) ] ]

(* The leaf a packet failing every test reaches: the policy's last
   fallback. *)
let rec floor_leaf (d : Fdd.t) =
  match d.node with Fdd.Leaf _ -> d | Fdd.Branch (_, _, lo) -> floor_leaf lo

(* A table miss falls through to whatever sits below the table, never to
   a lower rule of the same table: a pass that survives minimization has
   no encoding. *)
let reject_pass r =
  if List.exists (fun a -> Fdd.Act.loc a = Some Pass) r.acts then
    invalid_arg
      (match r.acts with
      | [ _ ] ->
          Format.asprintf
            "Policy.Compile: pass leaf %s at %a shadows a lower rule"
            (Fdd.to_string (Fdd.leaf r.acts))
            Of_match.pp r.match_
      | _ ->
          Printf.sprintf
            "Policy.Compile: pass inside the multi-action leaf %s has no \
             flow-rule encoding"
            (Fdd.to_string (Fdd.leaf r.acts)))

let compile ?(table_id = 0) pol =
  (* Tables materialise outputs only, so extraction works on the
     observable quotient: discard-only leaves become plain drops (and
     merge into the catch-all), and discards next to other actions
     vanish. *)
  let obs = Fdd.strip_disc (Fdd.of_policy pol) in
  let meter_mods = collect_meter_mods obs in
  let ga = { next_id = 1; tbl = Hashtbl.create 8; mods_rev = [] } in
  (* DFS, hi before lo: rule order = descending priority. *)
  let rules_rev = ref [] in
  let rec walk keys match_ (d : Fdd.t) =
    match d.node with
    | Fdd.Leaf acts ->
        rules_rev := { keys = List.rev keys; match_; acts } :: !rules_rev
    | Fdd.Branch (((f, v) as key), hi, lo) ->
        walk (key :: keys) (refine match_ f v) hi;
        walk keys match_ lo
  in
  walk [] Of_match.any obs;
  let ends_in_pass = Fdd.equal (floor_leaf obs) pass_leaf in
  let floor = if ends_in_pass then pass_leaf else Fdd.drop in
  let rules = minimize ~floor obs (List.rev !rules_rev) in
  List.iter reject_pass rules;
  let n = List.length rules in
  if n > ceiling - base then
    invalid_arg
      (Printf.sprintf
         "Policy.Compile: %d rules cross the priority ceiling %d" n ceiling);
  let flow_mods =
    List.mapi
      (fun i r ->
        Of_message.add_flow ~table_id ~priority:(base + n - 1 - i)
          ~match_:r.match_
          (instructions_of_leaf ga r.acts))
      rules
    @
    if ends_in_pass then []
    else
      [
        Of_message.add_flow ~table_id ~priority:0 ~match_:Of_match.any
          [ Flow_entry.Apply_actions [ Of_action.Drop ] ];
      ]
  in
  { table_id; flow_mods; group_mods = List.rev ga.mods_rev; meter_mods }

let messages t =
  List.map (fun m -> Of_message.Meter_mod m) t.meter_mods
  @ List.map (fun g -> Of_message.Group_mod g) t.group_mods
  @ List.map (fun f -> Of_message.Flow_mod f) t.flow_mods

let diff ~old t =
  if old.group_mods @ t.group_mods <> [] || old.meter_mods @ t.meter_mods <> []
  then invalid_arg "Policy.Compile.diff: groups and meters are not diffed";
  let same_slot (a : Of_message.flow_mod) (b : Of_message.flow_mod) =
    a.table_id = b.table_id && a.priority = b.priority
    && Of_match.equal a.match_ b.match_
  in
  let adds =
    List.filter
      (fun (fm : Of_message.flow_mod) ->
        not
          (List.exists
             (fun (o : Of_message.flow_mod) ->
               same_slot o fm && o.instructions = fm.instructions)
             old.flow_mods))
      t.flow_mods
  in
  let deletes =
    List.filter_map
      (fun (o : Of_message.flow_mod) ->
        if List.exists (same_slot o) t.flow_mods then None
        else
          Some
            (Of_message.delete_flow ~table_id:o.table_id ~strict:true
               ~priority:o.priority o.match_))
      old.flow_mods
  in
  List.map (fun fm -> Of_message.Flow_mod fm) (adds @ deletes)

let pp_instructions ppf instrs =
  let first = ref true in
  List.iter
    (fun instr ->
      if not !first then Format.pp_print_string ppf "; ";
      first := false;
      match instr with
      | Flow_entry.Meter id -> Format.fprintf ppf "meter:%d" id
      | Flow_entry.Apply_actions acts -> Of_action.pp_list ppf acts
      | Flow_entry.Write_actions acts ->
          Format.fprintf ppf "write[%a]" Of_action.pp_list acts
      | Flow_entry.Clear_actions -> Format.pp_print_string ppf "clear"
      | Flow_entry.Goto_table n -> Format.fprintf ppf "goto:%d" n)
    instrs

let render t =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "policy-table table=%d rules=%d groups=%d meters=%d\n"
       t.table_id (List.length t.flow_mods) (List.length t.group_mods)
       (List.length t.meter_mods));
  List.iter
    (function
      | Of_message.Add_meter { id; band } ->
          Buffer.add_string b
            (Printf.sprintf "meter %d rate_kbps=%d burst_kb=%d\n" id
               band.Meter_table.rate_kbps band.Meter_table.burst_kb)
      | _ -> ())
    t.meter_mods;
  List.iter
    (function
      | Of_message.Add_group { id; gtype; buckets } ->
          Buffer.add_string b
            (Format.asprintf "group %d %s {%a}\n" id
               (match gtype with
               | Group_table.All -> "all"
               | Group_table.Select -> "select"
               | Group_table.Indirect -> "indirect")
               (Format.pp_print_list
                  ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " | ")
                  (fun ppf (bk : Group_table.bucket) ->
                    Of_action.pp_list ppf bk.actions))
               buckets)
      | _ -> ())
    t.group_mods;
  List.iter
    (fun (fm : Of_message.flow_mod) ->
      Buffer.add_string b
        (Format.asprintf "rule %4d %a -> %a\n" fm.priority Of_match.pp
           fm.match_ pp_instructions fm.instructions))
    t.flow_mods;
  Buffer.contents b
