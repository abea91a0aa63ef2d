type t = {
  mutable entries : Flow_entry.t list; (* priority-descending, stable *)
  mutable size : int;
  max_entries : int;
  mutable version : int;
  mutable next_seq : int;
}

exception Table_full

let create ?(max_entries = 100_000) () =
  if max_entries <= 0 then invalid_arg "Flow_table.create: max_entries <= 0";
  { entries = []; size = 0; max_entries; version = 0; next_seq = 0 }

let bump t = t.version <- t.version + 1

(* One walk drops the entry [entry] replaces and inserts [entry] after
   every entry of its priority or higher (FIFO among equal priorities, so
   lookup ties are stable).  An entry it replaces has the same priority,
   so it lies before that point: the list past it is shared, not copied. *)
let add t ~now_ns entry =
  let priority = entry.Flow_entry.priority in
  let replaced = ref 0 in
  let rec walk = function
    | [] -> [ entry ]
    | e :: rest as all ->
        if e.Flow_entry.priority < priority then entry :: all
        else if
          e.Flow_entry.priority = priority
          && Of_match.is_exact_overlap e.Flow_entry.match_ entry.Flow_entry.match_
        then begin
          incr replaced;
          walk rest
        end
        else e :: walk rest
  in
  let entries = walk t.entries in
  if t.size - !replaced >= t.max_entries then raise Table_full;
  entry.Flow_entry.installed_at_ns <- now_ns;
  entry.Flow_entry.last_used_ns <- now_ns;
  entry.Flow_entry.seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.entries <- entries;
  t.size <- t.size - !replaced + 1;
  bump t

let selected ~strict match_ ~priority e =
  if strict then
    e.Flow_entry.priority = priority
    && Of_match.is_exact_overlap e.Flow_entry.match_ match_
  else Of_match.subsumes match_ e.Flow_entry.match_

let modify t ~strict match_ ~priority instructions =
  let changed = ref 0 in
  t.entries <-
    List.map
      (fun e ->
        if selected ~strict match_ ~priority e then begin
          incr changed;
          { e with Flow_entry.instructions }
        end
        else e)
      t.entries;
  if !changed > 0 then bump t;
  !changed

let outputs_to_port port e =
  List.exists
    (function
      | Of_action.Output (Of_action.Physical p) -> p = port
      | Of_action.Output
          (Of_action.In_port | Of_action.Flood | Of_action.All | Of_action.Controller _)
      | Of_action.Group _ | Of_action.Push_vlan | Of_action.Pop_vlan
      | Of_action.Set_vlan_vid _ | Of_action.Set_vlan_pcp _
      | Of_action.Set_eth_src _ | Of_action.Set_eth_dst _
      | Of_action.Set_ip_src _ | Of_action.Set_ip_dst _ | Of_action.Set_ip_tos _
      | Of_action.Set_l4_src _ | Of_action.Set_l4_dst _ | Of_action.Drop -> false)
    (Flow_entry.actions e)

let delete t ~strict ?out_port match_ ~priority =
  let doomed e =
    selected ~strict match_ ~priority e
    && match out_port with None -> true | Some p -> outputs_to_port p e
  in
  let removed = ref 0 in
  t.entries <-
    List.filter
      (fun e ->
        if doomed e then begin
          incr removed;
          false
        end
        else true)
      t.entries;
  if !removed > 0 then begin
    t.size <- t.size - !removed;
    bump t
  end;
  !removed

let clear t =
  if t.entries <> [] then begin
    t.entries <- [];
    t.size <- 0;
    bump t
  end

(* Top-level, so a lookup or a scan builds no closure over its
   arguments. *)
let rec find ~in_port fields = function
  | [] -> None
  | e :: rest ->
      if Of_match.matches e.Flow_entry.match_ ~in_port fields then Some e
      else find ~in_port fields rest

let lookup t ~in_port fields = find ~in_port fields t.entries

let rec scan scanned ~in_port fields = function
  | [] -> None
  | e :: rest ->
      incr scanned;
      if Of_match.matches e.Flow_entry.match_ ~in_port fields then Some e
      else scan scanned ~in_port fields rest

let lookup_scan t ~scanned ~in_port fields = scan scanned ~in_port fields t.entries

let hit _t ~now_ns ~bytes entry = Flow_entry.touch entry ~now_ns ~bytes

let expire t ~now_ns =
  let expired, live =
    List.partition (fun e -> Flow_entry.expired e ~now_ns) t.entries
  in
  if expired <> [] then begin
    t.entries <- live;
    t.size <- t.size - List.length expired;
    bump t
  end;
  expired

let size t = t.size
let entries t = t.entries
let version t = t.version

let pp fmt t =
  Format.fprintf fmt "flow table (%d entries):@." (size t);
  List.iter (fun e -> Format.fprintf fmt "  %a@." Flow_entry.pp e) t.entries
