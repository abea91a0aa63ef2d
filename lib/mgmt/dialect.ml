open Ethswitch

module type S = sig
  val name : string
  val interface_name : int -> string
  val parse_interface_name : string -> int option
  val render : Device_config.t -> string
  val parse : string -> (Device_config.t, string) result
end

(* The rendering/parsing machinery shared by the dialects; they differ in
   interface naming and trailer. *)
module Core (Naming : sig
  val name : string
  val interface_name : int -> string
  val parse_interface_name : string -> int option
  val trailer : string option
end) : S = struct
  let name = Naming.name
  let interface_name = Naming.interface_name
  let parse_interface_name = Naming.parse_interface_name

  let render_allowed = function
    | Port_config.All -> "all"
    | Port_config.Only vids -> String.concat "," (List.map string_of_int vids)

  let render_stanza buf (s : Device_config.stanza) =
    Buffer.add_string buf (Printf.sprintf "interface %s\n" (interface_name s.Device_config.port));
    (match s.Device_config.description with
    | Some d -> Buffer.add_string buf (Printf.sprintf " description %s\n" d)
    | None -> ());
    (match s.Device_config.mode with
    | Port_config.Disabled -> Buffer.add_string buf " shutdown\n"
    | Port_config.Access vid ->
        Buffer.add_string buf " switchport mode access\n";
        Buffer.add_string buf (Printf.sprintf " switchport access vlan %d\n" vid)
    | Port_config.Trunk { native; allowed } ->
        Buffer.add_string buf " switchport mode trunk\n";
        (match native with
        | Some v ->
            Buffer.add_string buf (Printf.sprintf " switchport trunk native vlan %d\n" v)
        | None -> ());
        Buffer.add_string buf
          (Printf.sprintf " switchport trunk allowed vlan %s\n" (render_allowed allowed)));
    Buffer.add_string buf "!\n"

  let render (config : Device_config.t) =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (Printf.sprintf "hostname %s\n!\n" config.Device_config.hostname);
    List.iter (render_stanza buf) config.Device_config.stanzas;
    (match Naming.trailer with
    | Some trailer -> Buffer.add_string buf (trailer ^ "\n")
    | None -> ());
    Buffer.contents buf

  (* Parser state for one interface stanza. *)
  type pending = {
    port : int;
    mutable description : string option;
    mutable shutdown : bool;
    mutable is_trunk : bool;
    mutable access_vlan : int;
    mutable native : int option;
    mutable allowed : Port_config.allowed option;
  }

  let finish pending =
    let mode =
      if pending.shutdown then Port_config.Disabled
      else if pending.is_trunk then
        Port_config.Trunk
          {
            native = pending.native;
            allowed = Option.value pending.allowed ~default:Port_config.All;
          }
      else Port_config.Access pending.access_vlan
    in
    {
      Device_config.port = pending.port;
      mode;
      description = pending.description;
    }

  let parse_allowed s =
    if String.equal s "all" then Ok Port_config.All
    else
      let parts = String.split_on_char ',' s in
      let vids = List.filter_map int_of_string_opt parts in
      if List.length vids = List.length parts then Ok (Port_config.Only vids)
      else Error (Printf.sprintf "bad vlan list %S" s)

  let parse text =
    let lines = String.split_on_char '\n' text in
    let hostname = ref None in
    let stanzas = ref [] in
    let current : pending option ref = ref None in
    let error = ref None in
    let close () =
      match !current with
      | Some pending ->
          stanzas := finish pending :: !stanzas;
          current := None
      | None -> ()
    in
    let fail msg = if Option.is_none !error then error := Some msg in
    List.iter
      (fun raw ->
        if Option.is_none !error then
          let line = String.trim raw in
          let words =
            List.filter (fun w -> w <> "") (String.split_on_char ' ' line)
          in
          match words with
          | [] | [ "!" ] -> close ()
          | "hostname" :: rest -> hostname := Some (String.concat " " rest)
          | [ "interface"; ifname ] -> (
              close ();
              match parse_interface_name ifname with
              | Some port ->
                  current :=
                    Some
                      {
                        port;
                        description = None;
                        shutdown = false;
                        is_trunk = false;
                        access_vlan = 1;
                        native = None;
                        allowed = None;
                      }
              | None -> fail (Printf.sprintf "unknown interface %S" ifname))
          | _ -> (
              match !current with
              | None -> () (* top-level lines we do not model *)
              | Some pending -> (
                  match words with
                  | "description" :: rest ->
                      pending.description <- Some (String.concat " " rest)
                  | [ "shutdown" ] -> pending.shutdown <- true
                  | [ "switchport"; "mode"; "access" ] -> pending.is_trunk <- false
                  | [ "switchport"; "mode"; "trunk" ] -> pending.is_trunk <- true
                  | [ "switchport"; "access"; "vlan"; v ] -> (
                      match int_of_string_opt v with
                      | Some vid -> pending.access_vlan <- vid
                      | None -> fail (Printf.sprintf "bad access vlan %S" v))
                  | [ "switchport"; "trunk"; "native"; "vlan"; v ] -> (
                      match int_of_string_opt v with
                      | Some vid -> pending.native <- Some vid
                      | None -> fail (Printf.sprintf "bad native vlan %S" v))
                  | [ "switchport"; "trunk"; "allowed"; "vlan"; vlans ] -> (
                      match parse_allowed vlans with
                      | Ok allowed -> pending.allowed <- Some allowed
                      | Error msg -> fail msg)
                  | _ -> () (* tolerated unknown interface-level line *))))
      lines;
    close ();
    match !error with
    | Some msg -> Error (Printf.sprintf "%s parse error: %s" name msg)
    | None ->
        let hostname = Option.value !hostname ~default:"switch" in
        (try Ok (Device_config.make ~hostname (List.rev !stanzas))
         with Invalid_argument msg -> Error msg)
end

module Ios = Core (struct
  let name = "ios"
  let interface_name port = Printf.sprintf "GigabitEthernet0/%d" (port + 1)

  let parse_interface_name s =
    let prefix = "GigabitEthernet0/" in
    let plen = String.length prefix in
    if String.length s > plen && String.sub s 0 plen = prefix then
      match int_of_string_opt (String.sub s plen (String.length s - plen)) with
      | Some n when n >= 1 -> Some (n - 1)
      | Some _ | None -> None
    else None

  let trailer = Some "end"
end)

module Eos = Core (struct
  let name = "eos"
  let interface_name port = Printf.sprintf "Ethernet%d" (port + 1)

  let parse_interface_name s =
    let prefix = "Ethernet" in
    let plen = String.length prefix in
    if String.length s > plen && String.sub s 0 plen = prefix then
      match int_of_string_opt (String.sub s plen (String.length s - plen)) with
      | Some n when n >= 1 -> Some (n - 1)
      | Some _ | None -> None
    else None

  let trailer = None
end)

(* JunOS-like: flat "set ..." statements.  Structure per port:
     set interfaces ge-0/0/N description TEXT
     set interfaces ge-0/0/N disable
     set interfaces ge-0/0/N unit 0 family ethernet-switching port-mode access
     set interfaces ge-0/0/N unit 0 family ethernet-switching vlan members V
     set interfaces ge-0/0/N unit 0 family ethernet-switching port-mode trunk
     set interfaces ge-0/0/N unit 0 family ethernet-switching native-vlan-id V
   plus "set system host-name NAME". *)
module Junos : S = struct
  let name = "junos"
  let interface_name port = Printf.sprintf "ge-0/0/%d" port

  let parse_interface_name s =
    let prefix = "ge-0/0/" in
    let plen = String.length prefix in
    if String.length s > plen && String.sub s 0 plen = prefix then
      match int_of_string_opt (String.sub s plen (String.length s - plen)) with
      | Some n when n >= 0 -> Some n
      | Some _ | None -> None
    else None

  let render_stanza buf (s : Device_config.stanza) =
    let ifname = interface_name s.Device_config.port in
    let stmt fmt = Printf.ksprintf (fun line -> Buffer.add_string buf (line ^ "\n")) fmt in
    (match s.Device_config.description with
    | Some d -> stmt "set interfaces %s description \"%s\"" ifname d
    | None -> ());
    match s.Device_config.mode with
    | Port_config.Disabled -> stmt "set interfaces %s disable" ifname
    | Port_config.Access vid ->
        stmt "set interfaces %s unit 0 family ethernet-switching port-mode access" ifname;
        stmt "set interfaces %s unit 0 family ethernet-switching vlan members %d" ifname vid
    | Port_config.Trunk { native; allowed } ->
        stmt "set interfaces %s unit 0 family ethernet-switching port-mode trunk" ifname;
        (match native with
        | Some v ->
            stmt "set interfaces %s unit 0 family ethernet-switching native-vlan-id %d"
              ifname v
        | None -> ());
        (match allowed with
        | Port_config.All ->
            stmt "set interfaces %s unit 0 family ethernet-switching vlan members all" ifname
        | Port_config.Only vids ->
            List.iter
              (fun v ->
                stmt "set interfaces %s unit 0 family ethernet-switching vlan members %d"
                  ifname v)
              vids)

  let render (config : Device_config.t) =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf "set system host-name %s\n" config.Device_config.hostname);
    List.iter (render_stanza buf) config.Device_config.stanzas;
    Buffer.contents buf

  type pending = {
    mutable description : string option;
    mutable disabled : bool;
    mutable is_trunk : bool;
    mutable members : [ `All | `Vids of int list ];
    mutable native : int option;
  }

  let fresh () =
    { description = None; disabled = false; is_trunk = false; members = `Vids []; native = None }

  let finish port p =
    let mode =
      if p.disabled then Port_config.Disabled
      else if p.is_trunk then
        Port_config.Trunk
          {
            native = p.native;
            allowed =
              (match p.members with
              | `All -> Port_config.All
              | `Vids [] -> Port_config.All
              | `Vids vids -> Port_config.Only (List.rev vids));
          }
      else
        Port_config.Access
          (match p.members with `Vids (v :: _) -> v | `Vids [] | `All -> 1)
    in
    { Device_config.port; mode; description = p.description }

  let strip_quotes s =
    let n = String.length s in
    if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then String.sub s 1 (n - 2) else s

  let parse text =
    let hostname = ref None in
    let ports : (int, pending) Hashtbl.t = Hashtbl.create 16 in
    let error = ref None in
    let fail msg = if Option.is_none !error then error := Some msg in
    let pending port =
      match Hashtbl.find_opt ports port with
      | Some p -> p
      | None ->
          let p = fresh () in
          Hashtbl.replace ports port p;
          p
    in
    List.iter
      (fun raw ->
        if Option.is_none !error then
          let line = String.trim raw in
          let words = List.filter (fun w -> w <> "") (String.split_on_char ' ' line) in
          match words with
          | [] -> ()
          | "set" :: "system" :: "host-name" :: rest ->
              hostname := Some (String.concat " " rest)
          | "set" :: "interfaces" :: ifname :: rest -> (
              match parse_interface_name ifname with
              | None -> fail (Printf.sprintf "junos: unknown interface %S" ifname)
              | Some port -> (
                  let p = pending port in
                  match rest with
                  | "description" :: d -> p.description <- Some (strip_quotes (String.concat " " d))
                  | [ "disable" ] -> p.disabled <- true
                  | [ "unit"; "0"; "family"; "ethernet-switching"; "port-mode"; "access" ] ->
                      p.is_trunk <- false
                  | [ "unit"; "0"; "family"; "ethernet-switching"; "port-mode"; "trunk" ] ->
                      p.is_trunk <- true
                  | [ "unit"; "0"; "family"; "ethernet-switching"; "vlan"; "members"; "all" ] ->
                      p.members <- `All
                  | [ "unit"; "0"; "family"; "ethernet-switching"; "vlan"; "members"; v ] -> (
                      match int_of_string_opt v with
                      | Some vid -> (
                          match p.members with
                          | `All -> ()
                          | `Vids vids -> p.members <- `Vids (vid :: vids))
                      | None -> fail (Printf.sprintf "junos: bad vlan %S" v))
                  | [ "unit"; "0"; "family"; "ethernet-switching"; "native-vlan-id"; v ] -> (
                      match int_of_string_opt v with
                      | Some vid -> p.native <- Some vid
                      | None -> fail (Printf.sprintf "junos: bad native vlan %S" v))
                  | _ -> () (* tolerated unknown statement *)))
          | "set" :: _ -> () (* other subsystems we do not model *)
          | _ -> fail (Printf.sprintf "junos: expected 'set ...', got %S" line))
      (String.split_on_char '\n' text);
    match !error with
    | Some msg -> Error msg
    | None ->
        let stanzas =
          Hashtbl.fold (fun port p acc -> finish port p :: acc) ports []
        in
        (try
           Ok
             (Device_config.make
                ~hostname:(Option.value !hostname ~default:"switch")
                stanzas)
         with Invalid_argument msg -> Error msg)
end
