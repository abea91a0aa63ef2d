type location = Phys of int | Flood | Ctrl of int | Disc | Pass

type field =
  | Loc
  | Eth_type
  | Vlan_vid
  | Eth_src
  | Eth_dst
  | Ip_proto
  | Ip_src
  | Ip_dst
  | Ip_tos
  | L4_src
  | L4_dst

type value =
  | Int of int
  | Mac of Netpkt.Mac_addr.t
  | Ip of Netpkt.Ipv4_addr.t
  | At of location

type pred =
  | True
  | False
  | Test of field * value
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type police = { meter_id : int; rate_kbps : int; burst_kb : int }

type t =
  | Filter of pred
  | Mod of field * value
  | Union of t * t
  | Seq of t * t
  | Orelse of t * t
  | Police of police
  | Balance of (field * value) list list

(* The FDD tests fields in this order.  [Eth_dst] ranks last on purpose:
   it is the field of the broadest fallback band (L2 forwarding matches
   every packet class), and ranking it below the protocol- and
   flow-scoped fields lets those rules keep their narrow matches instead
   of being re-emitted once per destination arm. *)
let field_rank = function
  | Loc -> 0
  | Eth_type -> 1
  | Vlan_vid -> 2
  | Eth_src -> 3
  | Ip_proto -> 4
  | Ip_src -> 5
  | Ip_dst -> 6
  | Ip_tos -> 7
  | L4_src -> 8
  | L4_dst -> 9
  | Eth_dst -> 10

let field_name = function
  | Loc -> "loc"
  | Eth_type -> "eth_type"
  | Vlan_vid -> "vlan_vid"
  | Eth_src -> "eth_src"
  | Eth_dst -> "eth_dst"
  | Ip_proto -> "ip_proto"
  | Ip_src -> "ip_src"
  | Ip_dst -> "ip_dst"
  | Ip_tos -> "ip_tos"
  | L4_src -> "l4_src"
  | L4_dst -> "l4_dst"

let compare_field a b = Int.compare (field_rank a) (field_rank b)

let location_rank = function
  | Phys _ -> 0
  | Flood -> 1
  | Ctrl _ -> 2
  | Disc -> 3
  | Pass -> 4

let compare_location a b =
  match (a, b) with
  | Phys p, Phys q -> Int.compare p q
  | Ctrl p, Ctrl q -> Int.compare p q
  | _ -> Int.compare (location_rank a) (location_rank b)

let value_rank = function Int _ -> 0 | Mac _ -> 1 | Ip _ -> 2 | At _ -> 3

let compare_value a b =
  match (a, b) with
  | Int x, Int y -> Int.compare x y
  | Mac x, Mac y -> Netpkt.Mac_addr.compare x y
  | Ip x, Ip y -> Netpkt.Ipv4_addr.compare x y
  | At x, At y -> compare_location x y
  | _ -> Int.compare (value_rank a) (value_rank b)

let equal_value a b = compare_value a b = 0

let compare_key (f1, v1) (f2, v2) =
  let c = compare_field f1 f2 in
  if c <> 0 then c else compare_value v1 v2

let pp_location ppf = function
  | Phys p -> Format.fprintf ppf "port:%d" p
  | Flood -> Format.pp_print_string ppf "flood"
  | Ctrl n -> Format.fprintf ppf "ctrl:%d" n
  | Disc -> Format.pp_print_string ppf "disc"
  | Pass -> Format.pp_print_string ppf "pass"

let pp_value ppf = function
  | Int n -> Format.pp_print_int ppf n
  | Mac m -> Netpkt.Mac_addr.pp ppf m
  | Ip ip -> Netpkt.Ipv4_addr.pp ppf ip
  | At l -> pp_location ppf l

let rec pp_pred ppf = function
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Test (f, v) -> Format.fprintf ppf "%s=%a" (field_name f) pp_value v
  | And (a, b) -> Format.fprintf ppf "(%a and %a)" pp_pred a pp_pred b
  | Or (a, b) -> Format.fprintf ppf "(%a or %a)" pp_pred a pp_pred b
  | Not a -> Format.fprintf ppf "not %a" pp_pred a

let pp_mods ppf mods =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (fun ppf (f, v) ->
      Format.fprintf ppf "%s:=%a" (field_name f) pp_value v)
    ppf mods

let rec pp ppf = function
  | Filter True -> Format.pp_print_string ppf "id"
  | Filter False -> Format.pp_print_string ppf "drop"
  | Filter p -> Format.fprintf ppf "filter %a" pp_pred p
  | Mod (f, v) -> Format.fprintf ppf "%s:=%a" (field_name f) pp_value v
  | Union (a, b) -> Format.fprintf ppf "(%a + %a)" pp a pp b
  | Seq (a, b) -> Format.fprintf ppf "(%a; %a)" pp a pp b
  | Orelse (a, b) -> Format.fprintf ppf "(%a |- %a)" pp a pp b
  | Police p ->
      Format.fprintf ppf "police(meter:%d %dkbps burst:%dkb)" p.meter_id
        p.rate_kbps p.burst_kb
  | Balance buckets ->
      Format.fprintf ppf "balance{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " | ")
           (fun ppf b -> pp_mods ppf b))
        buckets

let to_string t = Format.asprintf "%a" pp t

(* Well-formedness *)

let kind_of_value = function
  | Int _ -> "int"
  | Mac _ -> "mac"
  | Ip _ -> "ip"
  | At _ -> "location"

let bad what f v =
  invalid_arg
    (Printf.sprintf "Policy.Syntax: %s %s with %s value" what (field_name f)
       (kind_of_value v))

let check_test f v =
  match (f, v) with
  | Loc, At (Phys _) -> ()
  | Loc, At _ ->
      invalid_arg "Policy.Syntax: test loc only accepts a physical port"
  | (Eth_src | Eth_dst), Mac _ -> ()
  | (Ip_src | Ip_dst), Ip _ -> ()
  | (Eth_type | Vlan_vid | Ip_proto | Ip_tos | L4_src | L4_dst), Int _ -> ()
  | _ -> bad "test on" f v

let check_mod f v =
  match (f, v) with
  | Loc, At _ -> ()
  | (Eth_src | Eth_dst), Mac _ -> ()
  | (Ip_src | Ip_dst), Ip _ -> ()
  | (Ip_tos | L4_src | L4_dst), Int _ -> ()
  | (Eth_type | Vlan_vid | Ip_proto), _ ->
      invalid_arg
        (Printf.sprintf "Policy.Syntax: field %s is read-only" (field_name f))
  | _ -> bad "write to" f v

let rec check_pred = function
  | True | False -> ()
  | Test (f, v) -> check_test f v
  | And (a, b) | Or (a, b) ->
      check_pred a;
      check_pred b
  | Not a -> check_pred a

let rec check = function
  | Filter p -> check_pred p
  | Mod (f, v) -> check_mod f v
  | Union (a, b) | Seq (a, b) | Orelse (a, b) ->
      check a;
      check b
  | Police p ->
      if p.meter_id <= 0 then
        invalid_arg "Policy.Syntax: police meter_id must be positive";
      if p.rate_kbps <= 0 then
        invalid_arg "Policy.Syntax: police rate must be positive"
  | Balance buckets ->
      if buckets = [] then
        invalid_arg "Policy.Syntax: balance needs at least one bucket";
      List.iter
        (List.iter (function
           | _, At Pass ->
               invalid_arg "Policy.Syntax: pass inside a balance bucket"
           | f, v -> check_mod f v))
        buckets

(* Constructors *)

let id = Filter True
let drop = Filter False
let filter p = Filter p

let test f v =
  check_test f v;
  Test (f, v)

let conj = function
  | [] -> True
  | p :: ps -> List.fold_left (fun acc q -> And (acc, q)) p ps

let disj = function
  | [] -> False
  | p :: ps -> List.fold_left (fun acc q -> Or (acc, q)) p ps

let neg p = Not p
let in_port p = test Loc (At (Phys p))
let eth_dst_is m = test Eth_dst (Mac m)
let eth_type_is n = test Eth_type (Int n)
let ip_proto_is n = test Ip_proto (Int n)
let ip_src_is a = test Ip_src (Ip a)
let ip_dst_is a = test Ip_dst (Ip a)
let l4_dst_is n = test L4_dst (Int n)
let fwd p = Mod (Loc, At (Phys p))
let flood = Mod (Loc, At Flood)
let to_controller ?(bytes = 0) () = Mod (Loc, At (Ctrl bytes))
let discard = Mod (Loc, At Disc)
let pass = Mod (Loc, At Pass)
let set_eth_src m = Mod (Eth_src, Mac m)
let set_ip_src a = Mod (Ip_src, Ip a)
let union a b = Union (a, b)
let seq a b = Seq (a, b)
let orelse a b = Orelse (a, b)

let unions = function
  | [] -> drop
  | p :: ps -> List.fold_left (fun acc q -> Union (acc, q)) p ps

let seqs = function
  | [] -> id
  | p :: ps -> List.fold_left (fun acc q -> Seq (acc, q)) p ps

let rec orelses = function
  | [] -> drop
  | [ p ] -> p
  | p :: ps -> Orelse (p, orelses ps)

let police ~meter_id ~rate_kbps ~burst_kb =
  Police { meter_id; rate_kbps; burst_kb }

let balance buckets = Balance buckets
