(* Buckets: values 0..63 exact; above that, 16 sub-buckets per power of
   two, giving <= ~6% relative error. *)
let sub_buckets = 16
let linear_limit = 64
let bucket_count = linear_limit + (64 * sub_buckets)

type t = {
  counts : int array;
  mutable total : int;
  mutable vmin : int;
  mutable vmax : int;
  mutable sum : int; (* exact: a float field would box on every [record] *)
}

let create () =
  { counts = Array.make bucket_count 0; total = 0; vmin = max_int; vmax = 0; sum = 0 }

let index_of v =
  if v < linear_limit then v
  else
    (* position of the highest set bit *)
    let rec high_bit n acc = if n <= 1 then acc else high_bit (n lsr 1) (acc + 1) in
    let h = high_bit v 0 in
    let sub = (v lsr (h - 4)) land (sub_buckets - 1) in
    linear_limit + (((h - 6) * sub_buckets) + sub)

(* Representative (upper-bound) value of a bucket. *)
let value_of idx =
  if idx < linear_limit then idx
  else
    let idx = idx - linear_limit in
    let h = (idx / sub_buckets) + 6 in
    let sub = idx mod sub_buckets in
    ((sub_buckets + sub) lsl (h - 4)) + ((1 lsl (h - 4)) - 1)

let record t v =
  if v < 0 then invalid_arg "Hdr.record: negative sample";
  let idx = index_of v in
  t.counts.(idx) <- t.counts.(idx) + 1;
  t.total <- t.total + 1;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v;
  t.sum <- t.sum + v

let count t = t.total
let sum t = float_of_int t.sum

let min t =
  if t.total = 0 then invalid_arg "Hdr.min: empty";
  t.vmin

let max t =
  if t.total = 0 then invalid_arg "Hdr.max: empty";
  t.vmax

let mean t = if t.total = 0 then 0.0 else sum t /. float_of_int t.total

let percentile t p =
  if t.total = 0 then invalid_arg "Hdr.percentile: empty";
  if p <= 0.0 || p > 100.0 then invalid_arg "Hdr.percentile: bad p";
  let target = int_of_float (ceil (p /. 100.0 *. float_of_int t.total)) in
  let rec scan i acc =
    if i = bucket_count then t.vmax
    else
      let acc = acc + t.counts.(i) in
      if acc >= target then Stdlib.max (Stdlib.min (value_of i) t.vmax) t.vmin
      else scan (i + 1) acc
  in
  scan 0 0

let merge a b =
  {
    counts = Array.map2 ( + ) a.counts b.counts;
    total = a.total + b.total;
    vmin = Stdlib.min a.vmin b.vmin;
    vmax = Stdlib.max a.vmax b.vmax;
    sum = a.sum + b.sum;
  }

let reset t =
  Array.fill t.counts 0 bucket_count 0;
  t.total <- 0;
  t.vmin <- max_int;
  t.vmax <- 0;
  t.sum <- 0
