open Netpkt

type output =
  | Port of int * Packet.t
  | In_port of Packet.t
  | Flood of Packet.t
  | All_ports of Packet.t
  | Controller of int * Packet.t

type result = {
  outputs : output list;
  table_miss : bool;
  matched : Flow_entry.t list;
}

type t = {
  tables : Flow_table.t array;
  group_table : Group_table.t;
  meter_table : Meter_table.t;
}

let create ?(num_tables = 4) ?max_entries_per_table () =
  if num_tables <= 0 then invalid_arg "Pipeline.create: num_tables <= 0";
  {
    tables =
      Array.init num_tables (fun _ ->
          Flow_table.create ?max_entries:max_entries_per_table ());
    group_table = Group_table.create ();
    meter_table = Meter_table.create ();
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

(* One pipeline execution's state.  [rewrites]/[final] are the deferred
   "action set": at most one action per kind, outputs last.  A new
   rewrite replaces any of its kind; the output/group is kept apart. *)
type exec = {
  pipe : t;
  lookup : int -> in_port:int -> Packet.Fields.t -> Flow_entry.t option;
  now_ns : int;
  in_port : int;
  mutable outputs : output list; (* reverse order *)
  mutable matched : Flow_entry.t list; (* reverse order *)
  mutable miss : bool;
  mutable rewrites : Of_action.t list; (* reverse order *)
  mutable final : Of_action.t option; (* Output or Group *)
}

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

let rec write_actions ex = function
  | [] -> ()
  | action :: rest ->
      (match action with
      | Of_action.Output _ | Of_action.Group _ -> ex.final <- Some action
      | Of_action.Drop ->
          ex.rewrites <- [];
          ex.final <- None
      | _ ->
          ex.rewrites <-
            action :: List.filter (fun a -> not (same_kind a action)) ex.rewrites);
      write_actions ex rest

let emit ex out = ex.outputs <- out :: ex.outputs

(* [entered] lists the groups being executed.  It guards against group
   chaining loops (a bucket whose actions reference a group already being
   executed, e.g. a group pointing at itself).  OpenFlow forbids such
   chains; a switch fed one anyway must not diverge, so the cyclic
   reference is a no-op. *)
let rec run_action ex entered pkt action =
  match action with
  | Of_action.Output target ->
      (match target with
      | Of_action.Physical p -> emit ex (Port (p, pkt))
      | Of_action.In_port -> emit ex (In_port pkt)
      | Of_action.Flood -> emit ex (Flood pkt)
      | Of_action.All -> emit ex (All_ports pkt)
      | Of_action.Controller n -> emit ex (Controller (n, pkt)));
      pkt
  | Of_action.Group gid ->
      (if not (List.mem gid entered) then
         let hash = flow_hash (Packet.Fields.of_packet pkt) in
         match
           Group_table.select_buckets ex.pipe.group_table ~id:gid ~flow_hash:hash
         with
         | buckets -> run_buckets ex (gid :: entered) pkt buckets
         | exception Not_found -> ());
      pkt
  | Of_action.Drop -> pkt
  | _ -> Of_action.apply_rewrite action pkt

and run_actions ex entered pkt = function
  | [] -> pkt
  | action :: rest -> run_actions ex entered (run_action ex entered pkt action) rest

and run_buckets ex entered pkt = function
  | [] -> ()
  | b :: rest ->
      ignore (run_actions ex entered pkt b.Group_table.actions);
      run_buckets ex entered pkt rest

(* Oldest rewrite first: the list is newest-first. *)
let rec apply_rewrites pkt = function
  | [] -> pkt
  | action :: older -> Of_action.apply_rewrite action (apply_rewrites pkt older)

let finish ex pkt =
  let pkt = apply_rewrites pkt ex.rewrites in
  match ex.final with
  | None -> ()
  | Some final -> ignore (run_action ex [] pkt final)

(* [fields] is the view of [seen], the last packet a table was given:
   a table visit extracts fields again only when a rewrite has built a
   new packet since. *)
let rec walk ex table_id pkt seen fields =
  if table_id >= Array.length ex.pipe.tables then finish ex pkt
  else
    let fields = if pkt != seen then Packet.Fields.of_packet pkt else fields in
    match ex.lookup table_id ~in_port:ex.in_port fields with
    | None ->
        ex.miss <- true;
        finish ex pkt
    | Some entry ->
        Flow_entry.touch entry ~now_ns:ex.now_ns ~bytes:(Packet.size pkt);
        ex.matched <- entry :: ex.matched;
        run_instructions ex table_id pkt (-1) pkt fields
          entry.Flow_entry.instructions

(* [goto] is the last [Goto_table] seen, [-1] for none.  A metered-out
   packet stops here: no later instruction, table or action set runs. *)
and run_instructions ex table_id pkt goto seen fields = function
  | [] -> if goto > table_id then walk ex goto pkt seen fields else finish ex pkt
  | instruction :: rest -> (
      match instruction with
      | Flow_entry.Apply_actions actions ->
          run_instructions ex table_id (run_actions ex [] pkt actions) goto seen
            fields rest
      | Flow_entry.Write_actions actions ->
          write_actions ex actions;
          run_instructions ex table_id pkt goto seen fields rest
      | Flow_entry.Clear_actions ->
          ex.rewrites <- [];
          ex.final <- None;
          run_instructions ex table_id pkt goto seen fields rest
      | Flow_entry.Goto_table n -> run_instructions ex table_id pkt n seen fields rest
      | Flow_entry.Meter id -> (
          match
            Meter_table.apply ex.pipe.meter_table ~id ~now_ns:ex.now_ns
              ~bytes:(Packet.size pkt)
          with
          | `Pass -> run_instructions ex table_id pkt goto seen fields rest
          | `Drop -> ()))

(* Most passes emit one output and match one entry per table visited:
   a list of at most one element is its own reverse. *)
let rev = function ([] | [ _ ]) as l -> l | l -> List.rev l

let execute_with t ~lookup ~now_ns ~in_port pkt =
  let ex =
    {
      pipe = t;
      lookup;
      now_ns;
      in_port;
      outputs = [];
      matched = [];
      miss = false;
      rewrites = [];
      final = None;
    }
  in
  walk ex 0 pkt pkt (Packet.Fields.of_packet pkt);
  { outputs = rev ex.outputs; table_miss = ex.miss; matched = rev ex.matched }

let execute t ~now_ns ~in_port pkt =
  let lookup table_id ~in_port fields =
    Flow_table.lookup t.tables.(table_id) ~in_port fields
  in
  execute_with t ~lookup ~now_ns ~in_port pkt

let no_lookup _ ~in_port:_ _ = None

let execute_actions t ~now_ns ~in_port actions pkt =
  let ex =
    {
      pipe = t;
      lookup = no_lookup;
      now_ns;
      in_port;
      outputs = [];
      matched = [];
      miss = false;
      rewrites = [];
      final = None;
    }
  in
  ignore (run_actions ex [] pkt actions);
  rev ex.outputs

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
