(* GC counters as time series; the real-runtime read is isolated in
   [sample] so everything else stays deterministic and testable. *)

type t = {
  minor_collections : Timeseries.t;
  major_collections : Timeseries.t;
  promoted_words : Timeseries.t;
  heap_words : Timeseries.t;
  allocated_words : Timeseries.t;
  mutable count : int;
}

let create ?(capacity = 1024) () =
  let series name = Timeseries.create ~capacity ~name () in
  {
    minor_collections = series "gc_minor_collections";
    major_collections = series "gc_major_collections";
    promoted_words = series "gc_promoted_words";
    heap_words = series "gc_heap_words";
    allocated_words = series "gc_allocated_words";
    count = 0;
  }

let observe t ~ts_ns ~minor_collections ~major_collections ~promoted_words
    ~heap_words ~allocated_words =
  Timeseries.record t.minor_collections ~ts_ns (float_of_int minor_collections);
  Timeseries.record t.major_collections ~ts_ns (float_of_int major_collections);
  Timeseries.record t.promoted_words ~ts_ns promoted_words;
  Timeseries.record t.heap_words ~ts_ns (float_of_int heap_words);
  Timeseries.record t.allocated_words ~ts_ns allocated_words;
  t.count <- t.count + 1

let bytes_per_word = float_of_int (Sys.word_size / 8)

let sample t ~ts_ns =
  let q = Gc.quick_stat () in
  observe t ~ts_ns ~minor_collections:q.Gc.minor_collections
    ~major_collections:q.Gc.major_collections
    ~promoted_words:q.Gc.promoted_words ~heap_words:q.Gc.heap_words
    ~allocated_words:(Gc.allocated_bytes () /. bytes_per_word)

let samples t = t.count

let allocated_words_series t = t.allocated_words

let alloc_rate t ~now_ns ~window =
  Timeseries.rate_over t.allocated_words ~now_ns ~window

let add_alloc_rate_rule t alerts ?(name = "gc-alloc-rate") ?for_
    ~words_per_second ~window () =
  Alert.add_rule alerts ~name ?for_
    ~help:"sustained minor+major allocation rate (words/s)"
    (Alert.Series t.allocated_words)
    (Alert.Rate_above { per_second = words_per_second; window })

let words_str w =
  if w >= 1e9 then Printf.sprintf "%.1fGw" (w /. 1e9)
  else if w >= 1e6 then Printf.sprintf "%.1fMw" (w /. 1e6)
  else if w >= 1e3 then Printf.sprintf "%.1fkw" (w /. 1e3)
  else Printf.sprintf "%.0fw" w

let panel t ~now_ns ~window =
  let last series =
    match Timeseries.last series with Some (_, v) -> v | None -> 0.
  in
  Printf.sprintf
    "gc: %d samples, alloc rate %s/s, minor/major collections %.0f/%.0f, \
     promoted %s, heap %s\n"
    t.count
    (match alloc_rate t ~now_ns ~window with
    | Some r -> words_str (Float.max 0. r)
    | None -> "-")
    (last t.minor_collections) (last t.major_collections)
    (words_str (last t.promoted_words))
    (words_str (last t.heap_words))
