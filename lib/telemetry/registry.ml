(* Unified process-wide metrics registry.

   Generalizes the per-component tallies scattered through the tree
   (node drop ledgers, soft-switch stats lists, controller tallies)
   into one named, labelled namespace with Prometheus-text and JSON
   exposition.  Collection is pull-based: components expose
   [publish_metrics] functions that snapshot their internal tallies into
   a registry, so nothing on a packet hot path ever touches a hashtable
   here. *)

type labels = (string * string) list

let is_valid_name name =
  name <> ""
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       name

let is_valid_label_name name =
  name <> ""
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       name

let check_name name =
  if not (is_valid_name name) then
    invalid_arg (Printf.sprintf "Telemetry.Registry: invalid metric name %S" name)

let normalize_labels labels =
  List.iter
    (fun (k, _) ->
      if not (is_valid_label_name k) then
        invalid_arg (Printf.sprintf "Telemetry.Registry: invalid label name %S" k);
      if k = "quantile" then
        invalid_arg "Telemetry.Registry: label name \"quantile\" is reserved")
    labels;
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  let rec dup = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if String.equal a b then
          invalid_arg (Printf.sprintf "Telemetry.Registry: duplicate label %S" a)
        else dup rest
    | _ -> ()
  in
  dup sorted;
  sorted

type kind = Counter_kind | Gauge_kind | Histogram_kind

type value =
  | Counter_v of int ref
  | Gauge_v of float ref
  | Histogram_v of Hdr.t

type family = {
  fam_name : string;
  help : string;
  kind : kind;
  mutable series : (labels * value) list; (* insertion order *)
}

type t = {
  families : (string, family) Hashtbl.t;
  mutable order : string list; (* reverse insertion order *)
}

let create () = { families = Hashtbl.create 32; order = [] }
let default = create ()

let kind_name = function
  | Counter_kind -> "counter"
  | Gauge_kind -> "gauge"
  | Histogram_kind -> "histogram"

let family t ~kind ~help name =
  check_name name;
  match Hashtbl.find_opt t.families name with
  | Some fam ->
      if fam.kind <> kind then
        invalid_arg
          (Printf.sprintf
             "Telemetry.Registry: metric %S already registered as a %s" name
             (kind_name fam.kind));
      fam
  | None ->
      let fam = { fam_name = name; help; kind; series = [] } in
      Hashtbl.replace t.families name fam;
      t.order <- name :: t.order;
      fam

(* The series of metric [name] with [labels], made by [make] on first
   use. *)
let series t ~kind ~help ~labels name (make : unit -> value) =
  let labels = normalize_labels labels in
  let fam = family t ~kind ~help name in
  match List.assoc_opt labels fam.series with
  | Some v -> v
  | None ->
      let v = make () in
      fam.series <- fam.series @ [ (labels, v) ];
      v

module Counter = struct
  type nonrec t = int ref

  let v ?(registry = default) ?(help = "") ?(labels = []) name =
    match
      series registry ~kind:Counter_kind ~help ~labels name (fun () -> Counter_v (ref 0))
    with
    | Counter_v r -> r
    | Gauge_v _ | Histogram_v _ -> assert false

  let inc ?(by = 1) t =
    if by < 0 then invalid_arg "Telemetry.Counter.inc: negative increment";
    t := !t + by

  let value t = !t
end

module Gauge = struct
  type nonrec t = float ref

  let v ?(registry = default) ?(help = "") ?(labels = []) name =
    match
      series registry ~kind:Gauge_kind ~help ~labels name (fun () -> Gauge_v (ref 0.0))
    with
    | Gauge_v r -> r
    | Counter_v _ | Histogram_v _ -> assert false

  let set t x = t := x
  let add t x = t := !t +. x
  let set_int t x = t := float_of_int x
  let value t = !t
end

module Histogram = struct
  type nonrec t = Hdr.t

  let v ?(registry = default) ?(help = "") ?(labels = []) name =
    match
      series registry ~kind:Histogram_kind ~help ~labels name (fun () ->
          Histogram_v (Hdr.create ()))
    with
    | Histogram_v h -> h
    | Counter_v _ | Gauge_v _ -> assert false
end

let reset t =
  Hashtbl.iter
    (fun _ fam ->
      List.iter
        (fun (_, v) ->
          match v with
          | Counter_v r -> r := 0
          | Gauge_v r -> r := 0.0
          | Histogram_v h -> Hdr.reset h)
        fam.series)
    t.families

(* ---- exposition ---- *)

let sorted_families t =
  List.sort String.compare (List.rev t.order)
  |> List.filter_map (Hashtbl.find_opt t.families)

let sorted_series fam =
  List.sort
    (fun (a, _) (b, _) ->
      List.compare (fun (k1, v1) (k2, v2) ->
          match String.compare k1 k2 with 0 -> String.compare v1 v2 | c -> c)
        a b)
    fam.series

let float_repr = Json.float_repr

let render_labels buf labels =
  if labels <> [] then begin
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        Buffer.add_string buf (Json.escape v);
        Buffer.add_char buf '"')
      labels;
    Buffer.add_char buf '}'
  end

let quantiles = [ (50.0, "0.5"); (90.0, "0.9"); (99.0, "0.99") ]

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let line name labels value =
    Buffer.add_string buf name;
    render_labels buf labels;
    Buffer.add_char buf ' ';
    Buffer.add_string buf value;
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun fam ->
      if fam.help <> "" then
        Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" fam.fam_name fam.help);
      (* HDR histograms export as Prometheus summaries (pre-computed
         quantiles), which keeps the exposition small. *)
      let type_name =
        match fam.kind with
        | Counter_kind -> "counter"
        | Gauge_kind -> "gauge"
        | Histogram_kind -> "summary"
      in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" fam.fam_name type_name);
      List.iter
        (fun (labels, v) ->
          match v with
          | Counter_v r -> line fam.fam_name labels (string_of_int !r)
          | Gauge_v r -> line fam.fam_name labels (float_repr !r)
          | Histogram_v h ->
              if Hdr.count h > 0 then
                List.iter
                  (fun (p, q) ->
                    line fam.fam_name
                      (labels @ [ ("quantile", q) ])
                      (string_of_int (Hdr.percentile h p)))
                  quantiles;
              line (fam.fam_name ^ "_sum") labels (float_repr (Hdr.sum h));
              line (fam.fam_name ^ "_count") labels (string_of_int (Hdr.count h)))
        (sorted_series fam))
    (sorted_families t);
  Buffer.contents buf

let to_json t =
  let series_json (labels, v) =
    let labels_obj = Json.Obj (List.map (fun (k, s) -> (k, Json.Str s)) labels) in
    let value =
      match v with
      | Counter_v r -> Json.Int !r
      | Gauge_v r -> Json.Float !r
      | Histogram_v h ->
          let base = [ ("count", Json.Int (Hdr.count h)); ("sum", Json.Float (Hdr.sum h)) ] in
          let qs =
            if Hdr.count h = 0 then []
            else
              [
                ("mean", Json.Float (Hdr.mean h));
                ("p50", Json.Int (Hdr.percentile h 50.0));
                ("p90", Json.Int (Hdr.percentile h 90.0));
                ("p99", Json.Int (Hdr.percentile h 99.0));
              ]
          in
          Json.Obj (base @ qs)
    in
    Json.Obj [ ("labels", labels_obj); ("value", value) ]
  in
  let fam_json fam =
    Json.Obj
      [
        ("name", Json.Str fam.fam_name);
        ("type", Json.Str (kind_name fam.kind));
        ("help", Json.Str fam.help);
        ("series", Json.Arr (List.map series_json (sorted_series fam)));
      ]
  in
  Json.to_string (Json.Obj [ ("metrics", Json.Arr (List.map fam_json (sorted_families t))) ])

(* Snapshot a component's [(name, int)] stats list into gauges, e.g.
   [publish_ints reg ~prefix:"softswitch" ~labels:["switch","ss1"] stats]. *)
let publish_ints ?(registry = default) ~prefix ?(help = "") ?(labels = []) stats =
  List.iter
    (fun (name, v) ->
      let metric_name =
        prefix ^ "_"
        ^ String.map
            (function
              | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c
              | _ -> '_')
            name
      in
      Gauge.set_int (Gauge.v ~registry ~help ~labels metric_name) v)
    stats
