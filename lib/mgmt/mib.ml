type value = Int of int | Str of string

type provider = {
  prefix : Oid.t;
  bindings : unit -> (Oid.t * value) list;
  setter : (Oid.t -> value -> (unit, string) result) option;
}

type t = { mutable providers : provider list }

let create () = { providers = [] }

let register_subtree t prefix ~bindings ?set () =
  let overlapping p =
    Oid.is_prefix p.prefix prefix || Oid.is_prefix prefix p.prefix
  in
  if List.exists overlapping t.providers then
    invalid_arg
      (Printf.sprintf "Mib.register_subtree: %s overlaps an existing mount"
         (Oid.to_string prefix));
  t.providers <- { prefix; bindings; setter = set } :: t.providers

let register_scalar t oid ~get ?set () =
  let bindings () = [ (oid, get ()) ] in
  register_subtree t oid ~bindings
    ?set:(Option.map (fun f _oid v -> f v) set)
    ()

let all_bindings t =
  List.concat_map (fun p -> p.bindings ()) t.providers
  |> List.sort (fun (a, _) (b, _) -> Oid.compare a b)

let get t oid =
  List.find_map
    (fun p ->
      if Oid.is_prefix p.prefix oid then
        List.find_map
          (fun (o, v) -> if Oid.equal o oid then Some v else None)
          (p.bindings ())
      else None)
    t.providers

let set t oid value =
  match List.find_opt (fun p -> Oid.is_prefix p.prefix oid) t.providers with
  | Some { setter = Some f; _ } -> f oid value
  | Some { setter = None; _ } | None -> Error "notWritable"

let next t oid =
  List.find_opt (fun (o, _) -> Oid.compare o oid > 0) (all_bindings t)

let walk t prefix =
  List.filter (fun (o, _) -> Oid.is_prefix prefix o) (all_bindings t)
