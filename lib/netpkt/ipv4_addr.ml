type t = int32

let of_int32 n = n
let to_int32 t = t
let to_int t = Int32.to_int t land 0xffff_ffff
let of_int n = Int32.of_int n
let any = 0l
let broadcast = 0xffffffffl
let equal = Int32.equal
let compare = Int32.unsigned_compare

let of_octets a b c d =
  let check x = if x < 0 || x > 255 then invalid_arg "Ipv4_addr.of_octets" in
  check a; check b; check c; check d;
  Int32.logor
    (Int32.shift_left (Int32.of_int a) 24)
    (Int32.of_int ((b lsl 16) lor (c lsl 8) lor d))

let octet t i =
  Int32.to_int (Int32.logand (Int32.shift_right_logical t ((3 - i) * 8)) 0xffl)

let to_string t =
  Printf.sprintf "%d.%d.%d.%d" (octet t 0) (octet t 1) (octet t 2) (octet t 3)

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      let int_of x =
        match int_of_string_opt x with
        | Some v when v >= 0 && v <= 255 && x <> "" -> v
        | _ -> invalid_arg "Ipv4_addr.of_string"
      in
      of_octets (int_of a) (int_of b) (int_of c) (int_of d))
  | _ -> invalid_arg "Ipv4_addr.of_string"

let of_string_opt s = try Some (of_string s) with Invalid_argument _ -> None

let of_bytes s =
  if String.length s <> 4 then invalid_arg "Ipv4_addr.of_bytes";
  of_octets (Char.code s.[0]) (Char.code s.[1]) (Char.code s.[2]) (Char.code s.[3])

let to_bytes t =
  let b = Bytes.create 4 in
  for i = 0 to 3 do Bytes.set b i (Char.chr (octet t i)) done;
  Bytes.unsafe_to_string b

let succ t = Int32.add t 1l
let add t n = Int32.add t (Int32.of_int n)
let is_multicast t = Int32.logand t 0xf0000000l = 0xe0000000l
let pp fmt t = Format.pp_print_string fmt (to_string t)

module Prefix = struct
  type addr = t
  type t = { base : addr; len : int }

  let mask_of_len len =
    if len = 0 then 0l else Int32.shift_left (-1l) (32 - len)

  let make base len =
    if len < 0 || len > 32 then invalid_arg "Ipv4_addr.Prefix.make";
    { base = Int32.logand base (mask_of_len len); len }

  let of_string s =
    match String.index_opt s '/' with
    | None -> invalid_arg "Ipv4_addr.Prefix.of_string: missing '/'"
    | Some i ->
        let base = of_string (String.sub s 0 i) in
        let len =
          match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
          | Some l when l >= 0 && l <= 32 -> l
          | _ -> invalid_arg "Ipv4_addr.Prefix.of_string: bad length"
        in
        make base len

  let to_string t = Printf.sprintf "%s/%d" (to_string t.base) t.len
  let base t = t.base
  let length t = t.len
  let mask t = mask_of_len t.len
  let mem a t = Int32.equal (Int32.logand a (mask_of_len t.len)) t.base

  let mem_int a t =
    let mask = if t.len = 0 then 0 else (0xffff_ffff lsl (32 - t.len)) land 0xffff_ffff in
    a land mask = to_int t.base

  let subsumes p q = p.len <= q.len && mem q.base p

  let size t = if t.len = 0 then max_int else 1 lsl (32 - t.len)

  let nth t i =
    if i < 0 || (t.len > 0 && i >= 1 lsl (32 - t.len)) then
      invalid_arg "Ipv4_addr.Prefix.nth";
    add t.base i

  let equal a b = Int32.equal a.base b.base && a.len = b.len
  let compare a b =
    match Int32.unsigned_compare a.base b.base with
    | 0 -> Int.compare a.len b.len
    | c -> c

  let pp fmt t = Format.pp_print_string fmt (to_string t)
end
