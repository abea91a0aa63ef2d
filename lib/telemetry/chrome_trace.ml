(* Chrome trace-event export: render a recorder as the JSON array
   format that chrome://tracing and https://ui.perfetto.dev load.

   Layout: one process (pid 1), one "thread" per emitting component, a
   thread_name metadata event per component, and one complete ("X")
   event per hop, then the recorder's events as instants.  Timestamps
   are sim-time microseconds; hop durations come from the hop's
   modelled cycle cost at [cycles_per_us] (default 2400, i.e. a 2.4 GHz
   core), floored at 1 ns so every event is visible. *)

let pid = 1

let tids hops =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (hop : Trace.hop) ->
      if not (Hashtbl.mem tbl hop.Trace.component) then begin
        Hashtbl.replace tbl hop.Trace.component (Hashtbl.length tbl + 1);
        order := hop.Trace.component :: !order
      end)
    hops;
  (tbl, List.rev !order)

let us_of_ns ns = float_of_int ns /. 1e3

(* Flight-recorder events render as instant ("i") events on one pseudo
   thread per stream, carrying the correlation id in args in the same
   "%08x" form as the hops' trace_key — Perfetto's args search joins
   the two. *)
let recorder_events tid_base (events : Trace.event list) =
  let streams =
    List.sort_uniq String.compare
      (List.map (fun (e : Trace.event) -> e.Trace.stream) events)
  in
  let tid_of =
    List.mapi (fun i stream -> (stream, tid_base + i)) streams
  in
  let meta =
    List.map
      (fun (stream, tid) ->
        Json.Obj
          [
            ("name", Json.Str "thread_name");
            ("ph", Json.Str "M");
            ("ts", Json.Int 0);
            ("pid", Json.Int pid);
            ("tid", Json.Int tid);
            ("args", Json.Obj [ ("name", Json.Str ("events:" ^ stream)) ]);
          ])
      tid_of
  in
  let instant (e : Trace.event) =
    let args =
      [
        ("level", Json.Str (Trace.level_name e.Trace.level));
        ("seq", Json.Int e.Trace.seq);
      ]
      @ (if e.Trace.corr <> 0 then
           [ ("trace_key", Json.Str (Printf.sprintf "%08x" e.Trace.corr)) ]
         else [])
      @
      if e.Trace.detail <> "" then
        [ ("detail", Json.Str e.Trace.detail) ]
      else []
    in
    Json.Obj
      [
        ("name", Json.Str (e.Trace.stream ^ "." ^ e.Trace.name));
        ("cat", Json.Str "eventlog");
        ("ph", Json.Str "i");
        ("s", Json.Str "t");
        ("ts", Json.Float (us_of_ns e.Trace.ts_ns));
        ("pid", Json.Int pid);
        ("tid", Json.Int (List.assoc e.Trace.stream tid_of));
        ("args", Json.Obj args);
      ]
  in
  meta @ List.map instant events

let to_json ?(cycles_per_us = 2400.0) ?(spans = []) recorder =
  let hops = Trace.hops recorder in
  let tid_of, components = tids hops in
  let meta =
    List.map
      (fun component ->
        Json.Obj
          [
            ("name", Json.Str "thread_name");
            ("ph", Json.Str "M");
            ("ts", Json.Int 0);
            ("pid", Json.Int pid);
            ("tid", Json.Int (Hashtbl.find tid_of component));
            ("args", Json.Obj [ ("name", Json.Str component) ]);
          ])
      components
  in
  let event (hop : Trace.hop) =
    let dur =
      Float.max 0.001 (float_of_int hop.Trace.cycles /. cycles_per_us)
    in
    let args =
      [
        ("packet", Json.Str (Lazy.force hop.Trace.packet));
        ( "trace_key",
          Json.Str (Printf.sprintf "%08x" (Lazy.force hop.Trace.trace_key)) );
        ("bytes", Json.Int hop.Trace.bytes);
      ]
      @ (match hop.Trace.port with
        | Some p -> [ ("port", Json.Int p) ]
        | None -> [])
      @ (if hop.Trace.cycles > 0 then [ ("cycles", Json.Int hop.Trace.cycles) ] else [])
      @ if hop.Trace.detail <> "" then [ ("detail", Json.Str hop.Trace.detail) ] else []
    in
    Json.Obj
      [
        ("name", Json.Str (Trace.layer_name hop.Trace.layer ^ "." ^ hop.Trace.stage));
        ("cat", Json.Str (Trace.layer_name hop.Trace.layer));
        ("ph", Json.Str "X");
        ("ts", Json.Float (us_of_ns hop.Trace.ts_ns));
        ("dur", Json.Float dur);
        ("pid", Json.Int pid);
        ("tid", Json.Int (Hashtbl.find tid_of hop.Trace.component));
        ("args", Json.Obj args);
      ]
  in
  Json.Arr
    (meta
    @ List.map event hops
    @ Span.chrome_events spans
    @ recorder_events (List.length components + 1) (Trace.events recorder))

let to_string ?cycles_per_us ?spans recorder =
  Json.to_string_lines (to_json ?cycles_per_us ?spans recorder)

let save ?cycles_per_us ?spans recorder ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?cycles_per_us ?spans recorder))
