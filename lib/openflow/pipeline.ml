open Netpkt

type output =
  | Port of int * Packet.t
  | In_port of Packet.t
  | Flood of Packet.t
  | All_ports of Packet.t
  | Controller of int * Packet.t

(* The accumulator of one pass: the walk conses outputs and matched
   entries onto it newest first and reverses them when the pass ends. *)
type result = {
  mutable outputs : output list;
  mutable matched : Flow_entry.t list;
  mutable table_miss : bool;
  mutable cycles : int;
}

let make_result ~outputs ~table_miss ~matched =
  { outputs; matched; table_miss; cycles = 0 }

let set_cycles r cycles = r.cycles <- cycles

type t = {
  tables : Flow_table.t array;
  group_table : Group_table.t;
  meter_table : Meter_table.t;
  lookup : int -> in_port:int -> Packet.Fields.t -> Flow_entry.t option;
      (* the plain table lookup {!execute} walks with, built once *)
}

let create ?(num_tables = 4) ?max_entries_per_table () =
  if num_tables <= 0 then invalid_arg "Pipeline.create: num_tables <= 0";
  let tables =
    Array.init num_tables (fun _ ->
        Flow_table.create ?max_entries:max_entries_per_table ())
  in
  {
    tables;
    group_table = Group_table.create ();
    meter_table = Meter_table.create ();
    lookup =
      (fun table_id ~in_port fields ->
        Flow_table.lookup tables.(table_id) ~in_port fields);
  }

let num_tables t = Array.length t.tables

let table t i =
  if i < 0 || i >= Array.length t.tables then
    invalid_arg "Pipeline.table: bad index";
  t.tables.(i)

let groups t = t.group_table
let meters t = t.meter_table

(* The hash of the option 5-tuple the fields once held, rebuilt here so
   a flow keeps the bucket it has always had (select groups, and the
   load-balancer rows of E6 and E11, depend on it). *)
let flow_hash (f : Packet.Fields.t) =
  let int v = if v = Packet.Fields.absent then None else Some v in
  let ip v =
    if v = Packet.Fields.absent then None else Some (Ipv4_addr.of_int v)
  in
  Hashtbl.hash
    ( ip f.Packet.Fields.ip_src,
      ip f.Packet.Fields.ip_dst,
      int f.Packet.Fields.ip_proto,
      int f.Packet.Fields.l4_src,
      int f.Packet.Fields.l4_dst )

let same_kind a b =
  match (a, b) with
  | Of_action.Set_vlan_vid _, Of_action.Set_vlan_vid _
  | Of_action.Set_vlan_pcp _, Of_action.Set_vlan_pcp _
  | Of_action.Set_eth_src _, Of_action.Set_eth_src _
  | Of_action.Set_eth_dst _, Of_action.Set_eth_dst _
  | Of_action.Set_ip_src _, Of_action.Set_ip_src _
  | Of_action.Set_ip_dst _, Of_action.Set_ip_dst _
  | Of_action.Set_ip_tos _, Of_action.Set_ip_tos _
  | Of_action.Set_l4_src _, Of_action.Set_l4_src _
  | Of_action.Set_l4_dst _, Of_action.Set_l4_dst _
  | Of_action.Push_vlan, Of_action.Push_vlan
  | Of_action.Pop_vlan, Of_action.Pop_vlan -> true
  | _ -> false

let rec drop_kind action = function
  | [] -> []
  | a :: rest ->
      if same_kind a action then drop_kind action rest
      else a :: drop_kind action rest

let emit r out = r.outputs <- out :: r.outputs

(* [entered] lists the groups being executed.  It guards against group
   chaining loops (a bucket whose actions reference a group already being
   executed, e.g. a group pointing at itself).  OpenFlow forbids such
   chains; a switch fed one anyway must not diverge, so the cyclic
   reference is a no-op. *)
let rec run_action pipe r entered pkt action =
  match action with
  | Of_action.Output target ->
      (match target with
      | Of_action.Physical p -> emit r (Port (p, pkt))
      | Of_action.In_port -> emit r (In_port pkt)
      | Of_action.Flood -> emit r (Flood pkt)
      | Of_action.All -> emit r (All_ports pkt)
      | Of_action.Controller n -> emit r (Controller (n, pkt)));
      pkt
  | Of_action.Group gid ->
      (if not (List.mem gid entered) then
         let hash = flow_hash (Packet.Fields.of_packet pkt) in
         match
           Group_table.select_buckets pipe.group_table ~id:gid ~flow_hash:hash
         with
         | buckets -> run_buckets pipe r (gid :: entered) pkt buckets
         | exception Not_found -> ());
      pkt
  | Of_action.Drop -> pkt
  | _ -> Of_action.apply_rewrite action pkt

and run_actions pipe r entered pkt = function
  | [] -> pkt
  | action :: rest ->
      run_actions pipe r entered (run_action pipe r entered pkt action) rest

and run_buckets pipe r entered pkt = function
  | [] -> ()
  | b :: rest ->
      ignore (run_actions pipe r entered pkt b.Group_table.actions);
      run_buckets pipe r entered pkt rest

(* Oldest rewrite first: the list is newest-first. *)
let rec apply_rewrites pkt = function
  | [] -> pkt
  | action :: older -> Of_action.apply_rewrite action (apply_rewrites pkt older)

(* The action set travels as two arguments: [rewrites], newest first and
   at most one per kind, and [final], the [Output] or [Group] that runs
   last, or [Drop] for none. *)
let finish pipe r pkt rewrites final =
  let pkt = apply_rewrites pkt rewrites in
  match final with
  | Of_action.Drop -> ()
  | _ -> ignore (run_action pipe r [] pkt final)

(* [fields] is the view of [seen], the last packet a table was given:
   a table visit extracts fields again only when a rewrite has built a
   new packet since. *)
let rec walk pipe lookup now_ns in_port r table_id pkt seen fields rewrites final =
  if table_id >= Array.length pipe.tables then finish pipe r pkt rewrites final
  else
    let fields = if pkt != seen then Packet.Fields.of_packet pkt else fields in
    match lookup table_id ~in_port fields with
    | None ->
        r.table_miss <- true;
        finish pipe r pkt rewrites final
    | Some entry ->
        Flow_entry.touch entry ~now_ns ~bytes:(Packet.size pkt);
        r.matched <- entry :: r.matched;
        run_instructions pipe lookup now_ns in_port r table_id pkt (-1) pkt fields
          rewrites final entry.Flow_entry.instructions

(* [goto] is the last [Goto_table] seen, [-1] for none.  A metered-out
   packet stops here: no later instruction, table or action set runs. *)
and run_instructions pipe lookup now_ns in_port r table_id pkt goto seen fields
    rewrites final = function
  | [] ->
      if goto > table_id then
        walk pipe lookup now_ns in_port r goto pkt seen fields rewrites final
      else finish pipe r pkt rewrites final
  | instruction :: rest -> (
      match instruction with
      | Flow_entry.Apply_actions actions ->
          run_instructions pipe lookup now_ns in_port r table_id
            (run_actions pipe r [] pkt actions)
            goto seen fields rewrites final rest
      | Flow_entry.Write_actions actions ->
          write_actions pipe lookup now_ns in_port r table_id pkt goto seen fields
            rewrites final rest actions
      | Flow_entry.Clear_actions ->
          run_instructions pipe lookup now_ns in_port r table_id pkt goto seen
            fields [] Of_action.Drop rest
      | Flow_entry.Goto_table n ->
          run_instructions pipe lookup now_ns in_port r table_id pkt n seen fields
            rewrites final rest
      | Flow_entry.Meter id -> (
          match
            Meter_table.apply pipe.meter_table ~id ~now_ns ~bytes:(Packet.size pkt)
          with
          | `Pass ->
              run_instructions pipe lookup now_ns in_port r table_id pkt goto seen
                fields rewrites final rest
          | `Drop -> ()))

(* Merges [actions] into the action set, then goes on with [rest]: a new
   rewrite replaces any of its kind, and [Drop] empties the set. *)
and write_actions pipe lookup now_ns in_port r table_id pkt goto seen fields
    rewrites final rest = function
  | [] ->
      run_instructions pipe lookup now_ns in_port r table_id pkt goto seen fields
        rewrites final rest
  | action :: more -> (
      match action with
      | Of_action.Output _ | Of_action.Group _ ->
          write_actions pipe lookup now_ns in_port r table_id pkt goto seen fields
            rewrites action rest more
      | Of_action.Drop ->
          write_actions pipe lookup now_ns in_port r table_id pkt goto seen fields
            [] Of_action.Drop rest more
      | _ ->
          write_actions pipe lookup now_ns in_port r table_id pkt goto seen fields
            (action :: drop_kind action rewrites)
            final rest more)

(* Most passes emit one output and match one entry per table visited:
   a list of at most one element is its own reverse and stays put. *)
let put_in_order r =
  (match r.outputs with [] | [ _ ] -> () | l -> r.outputs <- List.rev l);
  match r.matched with [] | [ _ ] -> () | l -> r.matched <- List.rev l

let execute_with t ~lookup ~now_ns ~in_port pkt fields =
  let r = { outputs = []; matched = []; table_miss = false; cycles = 0 } in
  walk t lookup now_ns in_port r 0 pkt pkt fields [] Of_action.Drop;
  put_in_order r;
  r

let execute t ~now_ns ~in_port pkt =
  execute_with t ~lookup:t.lookup ~now_ns ~in_port pkt (Packet.Fields.of_packet pkt)

let execute_actions t actions pkt =
  let r = { outputs = []; matched = []; table_miss = false; cycles = 0 } in
  ignore (run_actions t r [] pkt actions);
  put_in_order r;
  r.outputs

(* The table calls raise on bad input; a controller gets the reason. *)
let apply t ~now_ns (msg : Of_message.t) =
  match msg with
  | Of_message.Flow_mod fm -> (
      if fm.Of_message.table_id < 0 || fm.Of_message.table_id >= Array.length t.tables
      then Error "flow-mod: bad table id"
      else
        let table = t.tables.(fm.Of_message.table_id) in
        match fm.Of_message.command with
        | Of_message.Add -> (
            let entry =
              Flow_entry.make ~priority:fm.Of_message.priority
                ~cookie:fm.Of_message.cookie
                ?idle_timeout_s:fm.Of_message.idle_timeout_s
                ?hard_timeout_s:fm.Of_message.hard_timeout_s
                ~match_:fm.Of_message.match_ fm.Of_message.instructions
            in
            match Flow_table.add table ~now_ns entry with
            | () -> Ok ()
            | exception Flow_table.Table_full -> Error "flow-mod: table full")
        | Of_message.Modify { strict } ->
            ignore
              (Flow_table.modify table ~strict fm.Of_message.match_
                 ~priority:fm.Of_message.priority fm.Of_message.instructions);
            Ok ()
        | Of_message.Delete { strict } ->
            ignore
              (Flow_table.delete table ~strict ?out_port:fm.Of_message.out_port
                 fm.Of_message.match_ ~priority:fm.Of_message.priority);
            Ok ())
  | Of_message.Group_mod gm -> (
      match
        match gm with
        | Of_message.Add_group { id; gtype; buckets } ->
            Group_table.add t.group_table ~id gtype buckets
        | Of_message.Modify_group { id; gtype; buckets } ->
            Group_table.modify t.group_table ~id gtype buckets
        | Of_message.Delete_group { id } -> Group_table.remove t.group_table ~id
      with
      | () -> Ok ()
      | exception Invalid_argument msg -> Error msg
      | exception Not_found -> Error "group-mod: unknown group")
  | Of_message.Meter_mod mm -> (
      match
        match mm with
        | Of_message.Add_meter { id; band } -> Meter_table.add t.meter_table ~id band
        | Of_message.Modify_meter { id; band } ->
            Meter_table.modify t.meter_table ~id band
        | Of_message.Delete_meter { id } -> Meter_table.remove t.meter_table ~id
      with
      | () -> Ok ()
      | exception Invalid_argument msg -> Error msg
      | exception Not_found -> Error "meter-mod: unknown meter")
  | _ -> Ok ()

let expire t ~now_ns =
  for i = 0 to Array.length t.tables - 1 do
    ignore (Flow_table.expire t.tables.(i) ~now_ns)
  done

let total_entries t =
  Array.fold_left (fun acc tbl -> acc + Flow_table.size tbl) 0 t.tables

let version t =
  Array.fold_left (fun acc tbl -> acc + Flow_table.version tbl) 0 t.tables
