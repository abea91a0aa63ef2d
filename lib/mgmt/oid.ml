type t = int list

let of_list arcs =
  if arcs = [] then invalid_arg "Oid.of_list: empty";
  if List.exists (fun a -> a < 0) arcs then invalid_arg "Oid.of_list: negative arc";
  arcs

let to_list t = t

let of_string s =
  let s = if String.length s > 0 && s.[0] = '.' then String.sub s 1 (String.length s - 1) else s in
  let arcs =
    List.map
      (fun part ->
        match int_of_string_opt part with
        | Some a when a >= 0 -> a
        | Some _ | None -> invalid_arg "Oid.of_string: bad arc")
      (String.split_on_char '.' s)
  in
  of_list arcs

let to_string t = String.concat "." (List.map string_of_int t)

let rec is_prefix p t =
  match (p, t) with
  | [], _ -> true
  | _, [] -> false
  | a :: p', b :: t' -> a = b && is_prefix p' t'

let rec compare a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: a', y :: b' -> ( match Int.compare x y with 0 -> compare a' b' | c -> c)

let equal a b = compare a b = 0

module Std = struct
  let mib2 = [ 1; 3; 6; 1; 2; 1 ]
  let sys_descr = mib2 @ [ 1; 1; 0 ]
  let sys_up_time = mib2 @ [ 1; 3; 0 ]
  let sys_name = mib2 @ [ 1; 5; 0 ]
  let if_number = mib2 @ [ 2; 1; 0 ]
  let if_table = mib2 @ [ 2; 2 ]
  let if_descr i = mib2 @ [ 2; 2; 1; 2; i ]
  let if_oper_status i = mib2 @ [ 2; 2; 1; 8; i ]
  let if_in_ucast i = mib2 @ [ 2; 2; 1; 11; i ]
  let if_out_ucast i = mib2 @ [ 2; 2; 1; 17; i ]

  (* dot1qPvid lives at 1.3.6.1.2.1.17.7.1.4.5.1.1.<port> *)
  let vlan_port_vlan i = mib2 @ [ 17; 7; 1; 4; 5; 1; 1; i ]
end
