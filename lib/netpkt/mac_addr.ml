type t = string

let of_bytes s =
  if String.length s <> 6 then invalid_arg "Mac_addr.of_bytes: need 6 bytes";
  s

let to_bytes t = t
let broadcast = "\xff\xff\xff\xff\xff\xff"
let zero = "\x00\x00\x00\x00\x00\x00"

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Mac_addr.of_string: bad hex digit"

let of_string s =
  if String.length s <> 17 then invalid_arg "Mac_addr.of_string: bad length";
  let b = Bytes.create 6 in
  for i = 0 to 5 do
    let off = i * 3 in
    if i > 0 && s.[off - 1] <> ':' && s.[off - 1] <> '-' then
      invalid_arg "Mac_addr.of_string: bad separator";
    let hi = hex_digit s.[off] and lo = hex_digit s.[off + 1] in
    Bytes.set b i (Char.chr ((hi lsl 4) lor lo))
  done;
  Bytes.unsafe_to_string b

let of_string_opt s = try Some (of_string s) with Invalid_argument _ -> None

let to_string t =
  String.concat ":"
    (List.init 6 (fun i -> Printf.sprintf "%02x" (Char.code t.[i])))

let of_int64 n =
  let b = Bytes.create 6 in
  for i = 0 to 5 do
    let shift = (5 - i) * 8 in
    Bytes.set b i
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical n shift) 0xffL)))
  done;
  Bytes.unsafe_to_string b

let to_int t =
  (String.get_uint16_be t 0 lsl 32)
  lor (String.get_uint16_be t 2 lsl 16)
  lor String.get_uint16_be t 4

let to_int64 t = Int64.of_int (to_int t)
let of_int n = of_int64 (Int64.of_int n)

(* 0x02 first octet: locally administered, unicast. *)
let make_local i =
  let i = i land 0xffffffff in
  of_int64 (Int64.logor 0x020000000000L (Int64.of_int i))

let is_broadcast t = String.equal t broadcast
let is_multicast t = Char.code t.[0] land 1 = 1
let is_unicast t = not (is_multicast t)
let equal = String.equal
let compare = String.compare
let pp fmt t = Format.pp_print_string fmt (to_string t)
