type allowed = All | Only of int list

type mode =
  | Access of int
  | Trunk of { native : int option; allowed : allowed }
  | Disabled

let default = Access 1

(* Int equality per element, not [List.mem]'s polymorphic compare: this
   runs on every trunk classify and egress decision. *)
let rec mem_vid (vid : int) = function
  | [] -> false
  | v :: rest -> v = vid || mem_vid vid rest

let allows allowed vid = match allowed with All -> true | Only vids -> mem_vid vid vids

type encap = Not_member | Untagged | Tagged

let classify_ingress mode ~tag_vid =
  match mode with
  | Disabled -> -1
  | Access pvid -> if tag_vid < 0 || tag_vid = pvid then pvid else -1
  | Trunk { native; allowed } ->
      if tag_vid >= 0 then if allows allowed tag_vid then tag_vid else -1
      else (match native with Some v -> v | None -> -1)

let egress_encap mode ~vlan =
  match mode with
  | Disabled -> Not_member
  | Access pvid -> if pvid = vlan then Untagged else Not_member
  | Trunk { native; allowed } -> (
      match native with
      | Some v when v = vlan -> Untagged
      | Some _ | None -> if allows allowed vlan then Tagged else Not_member)

let pp fmt = function
  | Access pvid -> Format.fprintf fmt "access %d" pvid
  | Disabled -> Format.pp_print_string fmt "disabled"
  | Trunk { native; allowed } ->
      let allowed_str =
        match allowed with
        | All -> "all"
        | Only vids -> String.concat "," (List.map string_of_int vids)
      in
      Format.fprintf fmt "trunk native %s allowed %s"
        (match native with None -> "-" | Some v -> string_of_int v)
        allowed_str
