open Ethswitch

type stanza = {
  port : int;
  mode : Port_config.mode;
  description : string option;
}

type t = { hostname : string; stanzas : stanza list }

let make ~hostname stanzas =
  let sorted = List.sort (fun a b -> Int.compare a.port b.port) stanzas in
  let rec check = function
    | a :: (b :: _ as rest) ->
        if a.port = b.port then
          invalid_arg (Printf.sprintf "Device_config.make: duplicate port %d" a.port);
        check rest
    | [ _ ] | [] -> ()
  in
  check sorted;
  { hostname; stanzas = sorted }

let of_switch ~hostname switch =
  let stanzas =
    List.init (Legacy_switch.port_count switch) (fun port ->
        { port; mode = Legacy_switch.port_mode switch ~port; description = None })
  in
  make ~hostname stanzas

let apply t switch =
  List.iter
    (fun stanza -> Legacy_switch.set_port_mode switch ~port:stanza.port stanza.mode)
    t.stanzas

let stanza_for t ~port = List.find_opt (fun s -> s.port = port) t.stanzas

let mode_string mode = Format.asprintf "%a" Port_config.pp mode

let equal_modes a b =
  String.equal a.hostname b.hostname
  && List.length a.stanzas = List.length b.stanzas
  && List.for_all2
       (fun x y -> x.port = y.port && x.mode = y.mode)
       a.stanzas b.stanzas

let diff a b =
  let changes = ref [] in
  if not (String.equal a.hostname b.hostname) then
    changes := Printf.sprintf "hostname: %s -> %s" a.hostname b.hostname :: !changes;
  let ports =
    List.sort_uniq Int.compare
      (List.map (fun s -> s.port) a.stanzas @ List.map (fun s -> s.port) b.stanzas)
  in
  List.iter
    (fun port ->
      let before = stanza_for a ~port and after = stanza_for b ~port in
      match (before, after) with
      | Some x, Some y when x.mode <> y.mode ->
          changes :=
            Printf.sprintf "port %d: %s -> %s" port (mode_string x.mode)
              (mode_string y.mode)
            :: !changes
      | Some _, Some _ -> ()
      | Some x, None ->
          changes := Printf.sprintf "port %d: %s -> (removed)" port (mode_string x.mode) :: !changes
      | None, Some y ->
          changes := Printf.sprintf "port %d: (new) %s" port (mode_string y.mode) :: !changes
      | None, None -> ())
    ports;
  List.rev !changes
