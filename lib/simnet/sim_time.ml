type t = int
type span = int

let zero = 0

let of_ns n =
  if n < 0 then invalid_arg "Sim_time.of_ns: negative";
  n

let to_ns t = t

let add t d =
  let r = t + d in
  if r < 0 then invalid_arg "Sim_time.add: negative result";
  r

let diff a b = a - b
let max = Int.max
let compare = Int.compare
let ( <= ) (a : t) b = a <= b
let ( < ) (a : t) b = a < b
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let s n = n * 1_000_000_000
let of_seconds f = int_of_float (Float.round (f *. 1e9))
let span_to_seconds d = float_of_int d /. 1e9

let pp_span fmt d =
  let a = abs d in
  if a < 1_000 then Format.fprintf fmt "%dns" d
  else if a < 1_000_000 then Format.fprintf fmt "%.3fus" (float_of_int d /. 1e3)
  else if a < 1_000_000_000 then Format.fprintf fmt "%.3fms" (float_of_int d /. 1e6)
  else Format.fprintf fmt "%.3fs" (float_of_int d /. 1e9)

let pp fmt t = pp_span fmt t
