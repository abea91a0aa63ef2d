type bucket = { weight : int; actions : Of_action.t list }

type group_type = All | Select | Indirect

type group = { gtype : group_type; buckets : bucket list; total_weight : int }

type t = (int, group) Hashtbl.t

let create () : t = Hashtbl.create 16

let validate gtype buckets =
  let total = List.fold_left (fun acc b -> acc + Stdlib.max 0 b.weight) 0 buckets in
  (match gtype with
  | Indirect ->
      if List.length buckets <> 1 then
        invalid_arg "Group_table: indirect group needs exactly one bucket"
  | Select ->
      if total <= 0 then invalid_arg "Group_table: select group needs positive weight"
  | All -> ());
  total

let add t ~id gtype buckets =
  if Hashtbl.mem t id then invalid_arg "Group_table.add: id exists";
  let total_weight = validate gtype buckets in
  Hashtbl.replace t id { gtype; buckets; total_weight }

let modify t ~id gtype buckets =
  if not (Hashtbl.mem t id) then raise Not_found;
  let total_weight = validate gtype buckets in
  Hashtbl.replace t id { gtype; buckets; total_weight }

let remove t ~id = Hashtbl.remove t id
let size t = Hashtbl.length t

let select_buckets t ~id ~flow_hash =
  match Hashtbl.find_opt t id with
  | None -> raise Not_found
  | Some g -> (
      match g.gtype with
      | All -> g.buckets
      | Indirect -> g.buckets
      | Select ->
          let target = abs flow_hash mod g.total_weight in
          let rec pick acc = function
            | [] -> [] (* unreachable: total_weight > 0 *)
            | b :: rest ->
                let acc = acc + Stdlib.max 0 b.weight in
                if target < acc then [ b ] else pick acc rest
          in
          pick 0 g.buckets)
