(* Ring-buffer time series.

   Points live in two parallel arrays indexed modulo capacity; [start]
   is the oldest point, [len] how many are held.  Timestamps are
   non-decreasing by construction, so every window query walks the
   newest suffix and stops at the first point that falls out of the
   window — O(points in window), no sorting, no allocation beyond the
   accumulator. *)

type t = {
  series_name : string;
  ts : int array;
  values : float array;
  mutable start : int;
  mutable len : int;
  mutable total : int;
}

let create ?(capacity = 1024) ~name () =
  if capacity < 2 then invalid_arg "Timeseries.create: capacity < 2";
  {
    series_name = name;
    ts = Array.make capacity 0;
    values = Array.make capacity 0.0;
    start = 0;
    len = 0;
    total = 0;
  }

let name t = t.series_name
let length t = t.len
let total_recorded t = t.total

let idx t i = (t.start + i) mod Array.length t.ts
(* i-th held point, 0 = oldest *)

let newest t = idx t (t.len - 1)

let record t ~ts_ns v =
  let cap = Array.length t.ts in
  if t.len > 0 && ts_ns < t.ts.(newest t) then
    invalid_arg "Timeseries.record: timestamp went backwards";
  if t.len = cap then begin
    (* full: overwrite the oldest slot and advance start *)
    t.ts.(t.start) <- ts_ns;
    t.values.(t.start) <- v;
    t.start <- (t.start + 1) mod cap
  end
  else begin
    let i = idx t t.len in
    t.ts.(i) <- ts_ns;
    t.values.(i) <- v;
    t.len <- t.len + 1
  end;
  t.total <- t.total + 1

let last t = if t.len = 0 then None else Some (t.ts.(newest t), t.values.(newest t))

let to_list t =
  List.init t.len (fun i ->
      let j = idx t i in
      (t.ts.(j), t.values.(j)))

(* Fold the points inside [now - window, now], newest to oldest.  The
   series is time-ordered, so stop at the first point outside. *)
let fold_window t ~now_ns ~window ~init f =
  if window < 0 then invalid_arg "Timeseries: negative window";
  let lo = now_ns - window in
  let acc = ref init in
  (try
     for i = t.len - 1 downto 0 do
       let j = idx t i in
       let ts = t.ts.(j) in
       if ts > now_ns then () (* future points: skip, keep scanning *)
       else if ts < lo then raise Exit
       else acc := f !acc ts t.values.(j)
     done
   with Exit -> ());
  !acc

let min_over t ~now_ns ~window =
  fold_window t ~now_ns ~window ~init:None (fun acc _ v ->
      match acc with None -> Some v | Some m -> Some (Float.min m v))

let max_over t ~now_ns ~window =
  fold_window t ~now_ns ~window ~init:None (fun acc _ v ->
      match acc with None -> Some v | Some m -> Some (Float.max m v))

let avg_over t ~now_ns ~window =
  match
    fold_window t ~now_ns ~window ~init:(0, 0.0) (fun (n, sum) _ v ->
        (n + 1, sum +. v))
  with
  | 0, _ -> None
  | n, sum -> Some (sum /. float_of_int n)

let rate_over t ~now_ns ~window =
  (* Walking newest→oldest, the last point visited is the oldest in the
     window and the first is the newest. *)
  match
    fold_window t ~now_ns ~window ~init:None (fun acc ts v ->
        match acc with
        | None -> Some ((ts, v), (ts, v))
        | Some (newest, _) -> Some (newest, (ts, v)))
  with
  | Some ((t1, v1), (t0, v0)) when t1 > t0 ->
      Some ((v1 -. v0) /. (float_of_int (t1 - t0) /. 1e9))
  | Some _ | None -> None

let newest_age t ~now_ns =
  if t.len = 0 then None else Some (now_ns - t.ts.(newest t))

let clear t =
  t.start <- 0;
  t.len <- 0
