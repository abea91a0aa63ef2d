type member = {
  device : Mgmt.Device.t;
  trunk_port : int;
  access_ports : int list;
}

type t = {
  server : Server.t;
  port_maps : Port_map.t array;
  reports : Manager.report array;
}

let provision engine ~members ?base_vid ?dataplane ?pmd () =
  if members = [] then Error "Scaleout.provision: no members"
  else begin
    (* Configure every device; undo the ones already done on failure. *)
    let rec configure done_ = function
      | [] -> Ok (List.rev done_)
      | m :: rest -> (
          match
            Manager.configure_device ~device:m.device ~trunk_port:m.trunk_port
              ~access_ports:m.access_ports ?base_vid ()
          with
          | Ok result -> configure ((m, result) :: done_) rest
          | Error msg ->
              List.iter
                (fun (prev, _) -> ignore (Manager.deprovision prev.device))
                done_;
              Error msg)
    in
    match configure [] members with
    | Error _ as e -> e
    | Ok configured ->
        let port_maps =
          Array.of_list (List.map (fun (_, (map, _)) -> map) configured)
        in
        let reports =
          Array.of_list (List.map (fun (_, (_, report)) -> report) configured)
        in
        let server =
          Server.build engine ?dataplane ?pmd ~nics:1 ~ss2:"scaleout-ss2"
            (List.map
               (fun (m, (map, _)) -> (Mgmt.Device.hostname m.device, map))
               configured)
        in
        Ok { server; port_maps; reports }
  end

let total_ports t =
  Simnet.Node.port_count (Softswitch.Soft_switch.node t.server.Server.ss2)

let ss2_port t ~member ~access_port =
  if member < 0 || member >= Array.length t.port_maps then None
  else
    Option.map
      (fun logical -> t.server.Server.offsets.(member) + logical)
      (Port_map.logical_of_access_port t.port_maps.(member) access_port)

let member_of_ss2_port t port =
  let n = Array.length t.port_maps in
  let rec find m =
    if m >= n then None
    else
      let offset = t.server.Server.offsets.(m) in
      if port >= offset && port < offset + Port_map.size t.port_maps.(m) then
        Option.map
          (fun access -> (m, access))
          (Port_map.access_port_of_logical t.port_maps.(m) (port - offset))
      else find (m + 1)
  in
  if port < 0 then None else find 0
