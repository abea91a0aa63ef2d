type allowed = All | Only of int list

type mode =
  | Access of int
  | Trunk of { native : int option; allowed : allowed }
  | Disabled

let default = Access 1

let allows allowed vid =
  match allowed with All -> true | Only vids -> List.mem vid vids

let classify_ingress mode ~tag_vid =
  match (mode, tag_vid) with
  | Disabled, _ -> None
  | Access pvid, None -> Some pvid
  | Access pvid, Some vid -> if vid = pvid then Some pvid else None
  | Trunk { native; _ }, None -> native
  | Trunk { allowed; _ }, Some vid -> if allows allowed vid then Some vid else None

let egress_encap mode ~vlan =
  match mode with
  | Disabled -> None
  | Access pvid -> if pvid = vlan then Some `Untagged else None
  | Trunk { native; allowed } ->
      if native = Some vlan then Some `Untagged
      else if allows allowed vlan then Some (`Tagged vlan)
      else None

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
