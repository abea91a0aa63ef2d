module Counter = struct
  type t = (string, int ref) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let incr ?(by = 1) t name =
    match Hashtbl.find_opt t name with
    | Some r -> r := !r + by
    | None -> Hashtbl.replace t name (ref by)

  let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0

  let to_list t =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let reset = Hashtbl.reset
end

module Meter = struct
  type t = {
    mutable packets : int;
    mutable bytes : int;
    mutable window_start : Sim_time.t;
    mutable window_packets : int;
    mutable window_bytes : int;
  }

  let create () =
    {
      packets = 0;
      bytes = 0;
      window_start = Sim_time.zero;
      window_packets = 0;
      window_bytes = 0;
    }

  let record t ~now:_ ~bytes =
    t.packets <- t.packets + 1;
    t.bytes <- t.bytes + bytes;
    t.window_packets <- t.window_packets + 1;
    t.window_bytes <- t.window_bytes + bytes

  let packets t = t.packets
  let bytes t = t.bytes

  let start_window t ~now =
    t.window_start <- now;
    t.window_packets <- 0;
    t.window_bytes <- 0

  let elapsed t ~now = Sim_time.span_to_seconds (Sim_time.diff now t.window_start)

  let pps t ~now =
    let dt = elapsed t ~now in
    if dt <= 0.0 then 0.0 else float_of_int t.window_packets /. dt

  let bps t ~now =
    let dt = elapsed t ~now in
    if dt <= 0.0 then 0.0 else 8.0 *. float_of_int t.window_bytes /. dt
end

module Histogram = struct
  (* Buckets: values 0..63 exact; above that, 16 sub-buckets per power of
     two, giving <= ~6% relative error. *)
  let sub_buckets = 16
  let linear_limit = 64

  type t = {
    mutable counts : int array;
    mutable total : int;
    mutable vmin : int;
    mutable vmax : int;
    mutable sum : float;
  }

  let bucket_count = linear_limit + (64 * sub_buckets)

  let create () =
    {
      counts = Array.make bucket_count 0;
      total = 0;
      vmin = max_int;
      vmax = 0;
      sum = 0.0;
    }

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
    if v < 0 then invalid_arg "Histogram.record: negative sample";
    let idx = index_of v in
    t.counts.(idx) <- t.counts.(idx) + 1;
    t.total <- t.total + 1;
    if v < t.vmin then t.vmin <- v;
    if v > t.vmax then t.vmax <- v;
    t.sum <- t.sum +. float_of_int v

  let count t = t.total

  let min t =
    if t.total = 0 then invalid_arg "Histogram.min: empty";
    t.vmin

  let max t =
    if t.total = 0 then invalid_arg "Histogram.max: empty";
    t.vmax

  let mean t = if t.total = 0 then 0.0 else t.sum /. float_of_int t.total

  let percentile t p =
    if t.total = 0 then invalid_arg "Histogram.percentile: empty";
    if p <= 0.0 || p > 100.0 then invalid_arg "Histogram.percentile: bad p";
    let target = int_of_float (ceil (p /. 100.0 *. float_of_int t.total)) in
    let acc = ref 0 and result = ref t.vmax and found = ref false in
    (try
       for i = 0 to bucket_count - 1 do
         acc := !acc + t.counts.(i);
         if !acc >= target then begin
           result := Stdlib.min (value_of i) t.vmax;
           found := true;
           raise Exit
         end
       done
     with Exit -> ());
    if !found then Stdlib.max !result t.vmin else t.vmax

  let merge a b =
    let t = create () in
    for i = 0 to bucket_count - 1 do
      t.counts.(i) <- a.counts.(i) + b.counts.(i)
    done;
    t.total <- a.total + b.total;
    t.vmin <- Stdlib.min a.vmin b.vmin;
    t.vmax <- Stdlib.max a.vmax b.vmax;
    t.sum <- a.sum +. b.sum;
    t

end
