open Netpkt
module P = Openflow.Pipeline

(* ---- implementations ---- *)

let implementations ~num_tables =
  List.map
    (fun (name, create) ->
      let pipeline = P.create ~num_tables () in
      (name, pipeline, create pipeline))
    (("oracle", Oracle.dataplane) :: Softswitch.Backends.all)

(* ---- shrinking: greedy step removal to a fixpoint ---- *)

let drop_nth l n = List.filteri (fun i _ -> i <> n) l

let shrink run steps d =
  let best_steps = ref steps in
  let best = ref d in
  let improved = ref true in
  while !improved do
    improved := false;
    (* Try dropping from the end first: later steps are more often
       dead weight once the diverging packet is early.  A removal only
       renumbers the steps after it, so the countdown stays valid. *)
    for i = List.length !best_steps - 1 downto 0 do
      let candidate = drop_nth !best_steps i in
      match run candidate with
      | Some d ->
          best_steps := candidate;
          best := d;
          improved := true
      | None -> ()
    done
  done;
  !best

(* ---- the seed loop ---- *)

type 'd report = { cases : int; packets : int; divergences : 'd list }

let max_divergences = 5

let run ?(on_divergence = fun _ -> ()) ~gen ~packets ~check ~seed ~cases () =
  let packet_count = ref 0 in
  let divergences = ref [] in
  for i = 0 to cases - 1 do
    let case = gen (seed + i) in
    packet_count := !packet_count + packets case;
    if List.length !divergences < max_divergences then
      match check case with
      | None -> ()
      | Some d ->
          divergences := d :: !divergences;
          on_divergence d
  done;
  { cases; packets = !packet_count; divergences = List.rev !divergences }

(* ---- repro files ---- *)

let add_packet b ~now_ns ~in_port pkt =
  Printf.bprintf b "packet %d %d %s\n" now_ns in_port
    (Hex.encode (Packet.encode pkt))

let int_of s ~what =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "bad %s %S" what s)

let ( let* ) = Result.bind

let parse_packet acc ~packet now port hex =
  let* now_ns = int_of now ~what:"timestamp" in
  let* in_port = int_of port ~what:"port" in
  let* bytes = Hex.decode hex in
  match Packet.decode bytes with
  | pkt -> Ok (packet acc ~now_ns ~in_port pkt)
  | exception (Wire.Truncated _ | Wire.Malformed _) -> Error "bad packet bytes"

let parse ~directive ~packet init text =
  let parse_line acc line =
    match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
    | [] -> Ok acc
    | tok :: _ when tok.[0] = '#' -> Ok acc
    | [ "packet"; now; port; hex ] -> parse_packet acc ~packet now port hex
    | tok :: _ as toks -> (
        match directive acc toks with
        | Some r -> r
        | None -> Error (Printf.sprintf "unknown directive %S" tok))
  in
  let rec go n acc = function
    | [] -> Ok acc
    | line :: rest -> (
        match parse_line acc line with
        | Ok acc -> go (n + 1) acc rest
        | Error e -> Error (Printf.sprintf "line %d: %s" n e))
  in
  go 1 init (String.split_on_char '\n' text)

let save ~path ?comment text =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      (match comment with
      | Some c ->
          String.split_on_char '\n' c
          |> List.iter (fun l -> output_string oc ("# " ^ l ^ "\n"))
      | None -> ());
      output_string oc text)

let load ~path ~of_string ~run =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Result.map run (of_string text)
