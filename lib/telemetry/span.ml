(* Causal spans derived from the hop stream.

   A hop is a point event; a span is an interval.  The derivation uses
   the only clock the simulator has — the hop timestamps themselves: a
   hop's stage lasts until the next hop of the same packet (zero-width
   for the last hop of a visit, where the following gap is wire
   transit, and for the final hop of the trace).  Consecutive hops from
   one component group into a "visit" span, gaps between visits become
   synthetic transit spans, and everything hangs off one root [packet]
   span per trace.  Stage + transit spans exactly tile the root, so
   summed stage durations equal the end-to-end latency — the invariant
   Profile's attribution table relies on. *)

type t = {
  id : int;
  parent : int option;
  trace_key : int;
  name : string;
  component : string;
  begin_ns : int;
  end_ns : int;
  cycles : int;
  detail : string;
}

let duration_ns s = s.end_ns - s.begin_ns

let default_stage (hop : Trace.hop) =
  Trace.layer_name hop.Trace.layer ^ "." ^ hop.Trace.stage

(* Transit endpoints: hosts collapse to the role name "host" so a
   workload spread over many host pairs still yields one key per link
   role ("transit:host->legacy0", not one key per host) — without that,
   per-stage p50s could not sum to the e2e p50 across pairs. *)
let endpoint_name (hop : Trace.hop) =
  match hop.Trace.layer with
  | Trace.Host -> "host"
  | _ -> hop.Trace.component

let stage_name stage_of (hop : Trace.hop) =
  match stage_of hop with Some s -> s | None -> default_stage hop

(* Split a trace's hops into maximal runs of one component. *)
let visits hops =
  let rec go current acc = function
    | [] -> List.rev (List.rev current :: acc)
    | (hop : Trace.hop) :: rest -> (
        match current with
        | (prev : Trace.hop) :: _ when prev.Trace.component = hop.Trace.component
          ->
            go (hop :: current) acc rest
        | _ :: _ -> go [ hop ] (List.rev current :: acc) rest
        | [] -> go [ hop ] acc rest)
  in
  match hops with [] -> [] | hops -> go [] [] hops

let of_trace_with ~next_id ?(stage_of = fun _ -> None) (trace : Trace.trace) =
  match trace.Trace.hops with
  | [] -> []
  | first :: _ as hops ->
      let fresh () =
        incr next_id;
        !next_id
      in
      let last = List.nth hops (List.length hops - 1) in
      let total_cycles =
        List.fold_left (fun acc (h : Trace.hop) -> acc + h.Trace.cycles) 0 hops
      in
      let root =
        {
          id = fresh ();
          parent = None;
          trace_key = trace.Trace.key;
          name = "packet";
          component = "";
          begin_ns = first.Trace.ts_ns;
          end_ns = last.Trace.ts_ns;
          cycles = total_cycles;
          detail = Lazy.force first.Trace.packet;
        }
      in
      let groups = visits hops in
      let rec walk groups acc =
        match groups with
        | [] -> List.rev acc
        | group :: rest ->
            let ghd = List.hd group in
            let gcycles =
              List.fold_left
                (fun acc (h : Trace.hop) -> acc + h.Trace.cycles)
                0 group
            in
            let glast =
              match group with
              | [] -> ghd
              | _ -> List.nth group (List.length group - 1)
            in
            let gend = glast.Trace.ts_ns in
            let visit =
              {
                id = fresh ();
                parent = Some root.id;
                trace_key = trace.Trace.key;
                name = ghd.Trace.component;
                component = ghd.Trace.component;
                begin_ns = ghd.Trace.ts_ns;
                end_ns = gend;
                cycles = gcycles;
                detail = "";
              }
            in
            (* Stage spans: each hop lasts until the next hop in the
               same visit; the visit's last hop is zero-width. *)
            let rec stages hops acc =
              match hops with
              | [] -> List.rev acc
              | (hop : Trace.hop) :: rest ->
                  let end_ns =
                    match rest with
                    | (next : Trace.hop) :: _ -> next.Trace.ts_ns
                    | [] -> hop.Trace.ts_ns
                  in
                  let s =
                    {
                      id = fresh ();
                      parent = Some visit.id;
                      trace_key = trace.Trace.key;
                      name = stage_name stage_of hop;
                      component = hop.Trace.component;
                      begin_ns = hop.Trace.ts_ns;
                      end_ns;
                      cycles = hop.Trace.cycles;
                      detail = hop.Trace.detail;
                    }
                  in
                  stages rest (s :: acc)
            in
            let stage_spans = stages group [] in
            (* Transit span over the gap to the next visit, if any. *)
            let transit =
              match rest with
              | (next_group_hd :: _) :: _
                when next_group_hd.Trace.ts_ns > gend ->
                  [
                    {
                      id = fresh ();
                      parent = Some root.id;
                      trace_key = trace.Trace.key;
                      name =
                        Printf.sprintf "transit:%s->%s" (endpoint_name ghd)
                          (endpoint_name next_group_hd);
                      component = "";
                      begin_ns = gend;
                      end_ns = next_group_hd.Trace.ts_ns;
                      cycles = 0;
                      detail = "";
                    };
                  ]
              | _ -> []
            in
            walk rest (List.rev_append transit (List.rev_append (visit :: stage_spans) acc))
      in
      root :: walk groups []

let of_trace ?stage_of trace =
  let next_id = ref 0 in
  of_trace_with ~next_id ?stage_of trace

let of_traces ?stage_of traces =
  let next_id = ref 0 in
  List.concat_map (of_trace_with ~next_id ?stage_of) traces

(* ---- Chrome trace-event async pairs ---- *)

let us_of_ns ns = float_of_int ns /. 1e3

let chrome_events spans =
  List.concat_map
    (fun s ->
      let id = Printf.sprintf "0x%08x" s.trace_key in
      let args =
        (if s.component <> "" then [ ("component", Json.Str s.component) ]
         else [])
        @ (if s.cycles > 0 then [ ("cycles", Json.Int s.cycles) ] else [])
        @ if s.detail <> "" then [ ("detail", Json.Str s.detail) ] else []
      in
      let event ph ts extra =
        Json.Obj
          ([
             ("name", Json.Str s.name);
             ("cat", Json.Str "packet");
             ("ph", Json.Str ph);
             ("ts", Json.Float (us_of_ns ts));
             ("pid", Json.Int 1);
             ("tid", Json.Int 1);
             ("id", Json.Str id);
           ]
          @ extra)
      in
      [
        event "b" s.begin_ns
          (if args = [] then [] else [ ("args", Json.Obj args) ]);
        event "e" s.end_ns [];
      ])
    spans

(* ---- collapsed stacks (flamegraph.pl / speedscope) ---- *)

let stack_of spans_by_id s =
  let rec path s acc =
    let acc = if s.name = "" then acc else s.name :: acc in
    match s.parent with
    | None -> acc
    | Some pid -> (
        match Hashtbl.find_opt spans_by_id pid with
        | Some p -> path p acc
        | None -> acc)
  in
  String.concat ";" (path s [])

let to_collapsed spans =
  let by_id : (int, t) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let has_children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p -> Hashtbl.replace has_children p ()
      | None -> ())
    spans;
  (* Leaves (stage and transit spans) carry the time; zero-width spans
     contribute nothing to the flame graph. *)
  let acc : (string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if (not (Hashtbl.mem has_children s.id)) && duration_ns s > 0 then begin
        let stack = stack_of by_id s in
        let prev = Option.value (Hashtbl.find_opt acc stack) ~default:0 in
        Hashtbl.replace acc stack (prev + duration_ns s)
      end)
    spans;
  let lines =
    Hashtbl.fold (fun stack ns acc -> Printf.sprintf "%s %d" stack ns :: acc) acc []
  in
  String.concat "\n" (List.sort String.compare lines)
  ^ if lines = [] then "" else "\n"
