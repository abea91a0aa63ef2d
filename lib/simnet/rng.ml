(* The splitmix64 state, as the 8 bytes of one [Bytes]: a [mutable]
   [int64] field would box a fresh [Int64] on every store. *)
type t = Bytes.t

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 state;
  t

let create seed = of_state (Int64.of_int seed)

(* splitmix64: fast, full 64-bit period, excellent for simulation. *)
let next t =
  let z = Int64.add (Bytes.get_int64_le t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 = next
let split t = of_state (next t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* Keep 62 bits so the value fits OCaml's 63-bit int non-negatively. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next t) 1L = 1L

let uniform_pos t =
  (* Uniform in (0, 1]: avoids log 0. *)
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  (v +. 1.0) /. 9007199254740992.0

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential: mean <= 0";
  -.mean *. log (uniform_pos t)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))

module Zipf = struct
  type t = { cdf : float array }

  let create ~n ~skew =
    if n <= 0 then invalid_arg "Rng.Zipf.create: n <= 0";
    if skew < 0.0 then invalid_arg "Rng.Zipf.create: skew < 0";
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. (1.0 /. (float_of_int (i + 1) ** skew));
      cdf.(i) <- !acc
    done;
    let total = !acc in
    for i = 0 to n - 1 do cdf.(i) <- cdf.(i) /. total done;
    { cdf }

  let draw t rng =
    let u = float rng 1.0 in
    (* Smallest index whose cdf >= u. *)
    let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
end
