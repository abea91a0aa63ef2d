let render ~header rows =
  let all = header :: rows in
  let cols = List.fold_left (fun acc r -> Stdlib.max acc (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some cell -> Stdlib.max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init cols width in
  let render_row row =
    String.concat " | "
      (List.mapi
         (fun c w ->
           let cell = Option.value (List.nth_opt row c) ~default:"" in
           cell ^ String.make (w - String.length cell) ' ')
         widths)
  in
  let sep =
    String.concat "-+-" (List.map (fun w -> String.make w '-') widths)
  in
  String.concat "\n" (render_row header :: sep :: List.map render_row rows) ^ "\n"

let csv_field f =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') f then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' f) ^ "\""
  else f

let to_csv ~header rows =
  String.concat "\n"
    (List.map (fun row -> String.concat "," (List.map csv_field row)) (header :: rows))
  ^ "\n"

let csv_dir = ref None

let set_csv_dir dir = csv_dir := dir

let slug title =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Char.lowercase_ascii c
      | _ -> '-')
    title

let print ~title ~header rows =
  Printf.printf "\n## %s\n\n%s%!" title (render ~header rows);
  match !csv_dir with
  | None -> ()
  | Some dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path = Filename.concat dir (slug title ^ ".csv") in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (to_csv ~header rows))

let f1 v = Printf.sprintf "%.1f" v
let pct v = Printf.sprintf "%.1f%%" (100.0 *. v)
let mpps pps = Printf.sprintf "%.2f Mpps" (pps /. 1e6)
let gbps bps = Printf.sprintf "%.2f Gbps" (bps /. 1e9)
let us ns = Printf.sprintf "%.2f us" (float_of_int ns /. 1e3)
