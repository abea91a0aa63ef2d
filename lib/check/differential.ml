open Netpkt
module P = Openflow.Pipeline
module FE = Openflow.Flow_entry
module A = Openflow.Of_action
module M = Openflow.Of_match
module Msg_ = Openflow.Of_message
module Rng = Simnet.Rng

type step =
  | Msg of { now_ns : int; msg : Msg_.t }
  | Expire of { now_ns : int }
  | Packet of { now_ns : int; in_port : int; pkt : Packet.t }

type scenario = { tables : int; ports : int; steps : step list }

type divergence = {
  backend : string;
  step_index : int;
  expected : string;
  actual : string;
  scenario : scenario;
}

(* ---- result normalization ---- *)

let render_packet pkt = Hex.encode (Packet.encode pkt)

let render_output = function
  | P.Port (p, pkt) -> Printf.sprintf "port:%d:%s" p (render_packet pkt)
  | P.In_port pkt -> "inport:" ^ render_packet pkt
  | P.Flood pkt -> "flood:" ^ render_packet pkt
  | P.All_ports pkt -> "all:" ^ render_packet pkt
  | P.Controller (n, pkt) -> Printf.sprintf "ctrl:%d:%s" n (render_packet pkt)

let render_instruction = function
  | FE.Apply_actions actions ->
      Format.asprintf "apply[%a]" A.pp_list actions
  | FE.Write_actions actions ->
      Format.asprintf "write[%a]" A.pp_list actions
  | FE.Clear_actions -> "clear"
  | FE.Goto_table n -> Printf.sprintf "goto:%d" n
  | FE.Meter id -> Printf.sprintf "meter:%d" id

let render_entry (e : FE.t) =
  (* Counters deliberately excluded: they are per-pipeline state, not
     forwarding behaviour. *)
  Format.asprintf "p%d{%a}%s" e.FE.priority M.pp e.FE.match_
    (String.concat ";" (List.map render_instruction e.FE.instructions))

let render_result (r : P.result) =
  Printf.sprintf "outputs=[%s] miss=%b matched=[%s]"
    (String.concat " " (List.map render_output r.P.outputs))
    r.P.table_miss
    (String.concat " " (List.map render_entry r.P.matched))

(* ---- running a scenario across every implementation ---- *)

let run_scenario sc =
  let impls = Fuzz.implementations ~num_tables:sc.tables in
  let process (_, _, dp) ~now_ns ~in_port pkt =
    render_result (dp.Softswitch.Dataplane.process ~now_ns ~in_port pkt)
  in
  let oracle = List.hd impls and backends = List.tl impls in
  let rec go i = function
    | [] -> None
    | Msg { now_ns; msg } :: rest ->
        List.iter (fun (_, pipeline, _) -> ignore (P.apply pipeline ~now_ns msg)) impls;
        go (i + 1) rest
    | Expire { now_ns } :: rest ->
        List.iter (fun (_, pipeline, _) -> P.expire pipeline ~now_ns) impls;
        go (i + 1) rest
    | Packet { now_ns; in_port; pkt } :: rest -> (
        let expected = process oracle ~now_ns ~in_port pkt in
        let diverges ((backend, _, _) as impl) =
          let actual = process impl ~now_ns ~in_port pkt in
          if actual = expected then None
          else Some { backend; step_index = i; expected; actual; scenario = sc }
        in
        match List.find_map diverges backends with
        | Some d -> Some d
        | None -> go (i + 1) rest)
  in
  go 0 sc.steps

(* ---- generation ---- *)

let mac_pool =
  lazy
    (Array.map Mac_addr.of_string
       [|
         "02:00:00:00:00:01";
         "02:00:00:00:00:02";
         "02:00:00:00:00:03";
         "0e:ab:cd:00:00:04";
       |])

let ip_pool =
  lazy
    (Array.map Ipv4_addr.of_string
       [| "10.0.0.1"; "10.0.0.2"; "10.1.2.3"; "192.168.1.9" |])

let vid_pool = [| 101; 102 |]
let l4_pool = [| 53; 80; 1234; 4321 |]
let prefix_lens = [| 8; 16; 24; 32 |]

let pick rng a = a.(Rng.int rng (Array.length a))
let mac rng = pick rng (Lazy.force mac_pool)
let ip rng = pick rng (Lazy.force ip_pool)

let gen_match rng ~ports =
  let maybe p f m = if Rng.int rng p = 0 then f m else m in
  M.any
  |> maybe 4 (M.in_port (Rng.int rng ports))
  |> maybe 4 (fun m ->
         if Rng.bool rng then M.eth_dst (mac rng) m
         else
           M.eth_dst
             ~mask:(Mac_addr.of_string "ff:ff:ff:00:00:00")
             (mac rng) m)
  |> maybe 6 (M.eth_src (mac rng))
  |> maybe 5 (M.eth_type (if Rng.bool rng then 0x0800 else 0x0806))
  |> maybe 4 (fun m ->
         match Rng.int rng 3 with
         | 0 -> M.vlan_absent m
         | 1 -> M.vlan_present m
         | _ -> M.vid (pick rng vid_pool) m)
  |> maybe 5 (fun m ->
         M.ip_src (Ipv4_addr.Prefix.make (ip rng) (pick rng prefix_lens)) m)
  |> maybe 5 (fun m ->
         M.ip_dst (Ipv4_addr.Prefix.make (ip rng) (pick rng prefix_lens)) m)
  |> maybe 6 (M.ip_proto (match Rng.int rng 3 with 0 -> 1 | 1 -> 6 | _ -> 17))
  |> maybe 8 (M.ip_tos ((Rng.int rng 4) lsl 2))
  |> maybe 6 (M.l4_src (pick rng l4_pool))
  |> maybe 6 (M.l4_dst (pick rng l4_pool))

let gen_action rng ~ports =
  match Rng.int rng 14 with
  | 0 | 1 | 2 -> A.Output (A.Physical (Rng.int rng ports))
  | 3 -> A.Output A.In_port
  | 4 -> A.Output A.Flood
  | 5 -> A.Output (A.Controller 0)
  | 6 -> A.Group (1 + Rng.int rng 2)
  | 7 -> A.Push_vlan
  | 8 -> A.Pop_vlan
  | 9 -> A.Set_vlan_vid (pick rng vid_pool)
  | 10 -> A.Set_eth_dst (mac rng)
  | 11 -> A.Set_ip_src (ip rng)
  | 12 -> A.Set_l4_dst (pick rng l4_pool)
  | _ -> A.Output A.All

let gen_actions rng ~ports =
  List.init (1 + Rng.int rng 3) (fun _ -> gen_action rng ~ports)

let gen_instructions rng ~table_id ~tables ~ports =
  let instrs = ref [] in
  if Rng.int rng 6 = 0 then instrs := [ FE.Meter (1 + Rng.int rng 2) ];
  if Rng.int rng 3 > 0 then
    instrs := !instrs @ [ FE.Apply_actions (gen_actions rng ~ports) ];
  if Rng.int rng 3 = 0 then
    instrs := !instrs @ [ FE.Write_actions (gen_actions rng ~ports) ];
  if Rng.int rng 10 = 0 then instrs := !instrs @ [ FE.Clear_actions ];
  if table_id < tables - 1 && Rng.int rng 3 = 0 then
    instrs :=
      !instrs @ [ FE.Goto_table (table_id + 1 + Rng.int rng (tables - table_id - 1)) ];
  !instrs

let gen_flow_mod rng ~tables ~ports ~force_add =
  let table_id = if Rng.int rng 3 = 0 then Rng.int rng tables else 0 in
  let command =
    if force_add then Msg_.Add
    else
      match Rng.int rng 10 with
      | 0 -> Msg_.Modify { strict = Rng.bool rng }
      | 1 | 2 -> Msg_.Delete { strict = Rng.bool rng }
      | _ -> Msg_.Add
  in
  let out_port =
    match command with
    | Msg_.Delete _ when Rng.int rng 4 = 0 -> Some (Rng.int rng ports)
    | _ -> None
  in
  let timeout () = if Rng.int rng 4 = 0 then Some (1 + Rng.int rng 3) else None in
  {
    Msg_.table_id;
    command;
    priority = Rng.int rng 4;
    match_ = gen_match rng ~ports;
    instructions = gen_instructions rng ~table_id ~tables ~ports;
    cookie = 0L;
    idle_timeout_s = timeout ();
    hard_timeout_s = timeout ();
    out_port;
  }

let gen_bucket rng ~ports =
  {
    Openflow.Group_table.weight = 1 + Rng.int rng 3;
    actions = gen_actions rng ~ports;
  }

let gen_group_mod rng ~ports =
  let id = 1 + Rng.int rng 2 in
  match Rng.int rng 4 with
  | 0 -> Msg_.Delete_group { id }
  | 1 ->
      Msg_.Modify_group
        {
          id;
          gtype = Openflow.Group_table.All;
          buckets = List.init (1 + Rng.int rng 2) (fun _ -> gen_bucket rng ~ports);
        }
  | _ ->
      let gtype, buckets =
        match Rng.int rng 3 with
        | 0 -> (Openflow.Group_table.Indirect, [ gen_bucket rng ~ports ])
        | 1 ->
            ( Openflow.Group_table.Select,
              List.init (1 + Rng.int rng 3) (fun _ -> gen_bucket rng ~ports) )
        | _ ->
            ( Openflow.Group_table.All,
              List.init (1 + Rng.int rng 2) (fun _ -> gen_bucket rng ~ports) )
      in
      Msg_.Add_group { id; gtype; buckets }

let gen_meter_mod rng =
  let id = 1 + Rng.int rng 2 in
  let band () =
    {
      Openflow.Meter_table.rate_kbps = 8 * (1 + Rng.int rng 100);
      burst_kb = 1 + Rng.int rng 16;
    }
  in
  match Rng.int rng 4 with
  | 0 -> Msg_.Delete_meter { id }
  | 1 -> Msg_.Modify_meter { id; band = band () }
  | _ -> Msg_.Add_meter { id; band = band () }

let gen_packet rng =
  let vlans =
    match Rng.int rng 4 with
    | 0 -> [ Vlan.make (pick rng vid_pool) ]
    | 1 when Rng.int rng 4 = 0 ->
        [ Vlan.make (pick rng vid_pool); Vlan.make (pick rng vid_pool) ]
    | _ -> []
  in
  let dst = mac rng and src = mac rng in
  match Rng.int rng 8 with
  | 0 ->
      Packet.arp_request ~src_mac:src ~src_ip:(ip rng) ~target_ip:(ip rng)
  | 1 -> Packet.icmp_echo ~dst ~src ~ip_src:(ip rng) ~ip_dst:(ip rng) ~id:7 ~seq:1
  | n ->
      let mk = if n land 1 = 0 then Packet.udp else Packet.tcp ?flags:None in
      mk ~vlans ~dst ~src ~ip_src:(ip rng) ~ip_dst:(ip rng)
        ~src_port:(pick rng l4_pool) ~dst_port:(pick rng l4_pool) "payload"

let gen_scenario rng =
  let tables = 1 + Rng.int rng 4 in
  let ports = 2 + Rng.int rng 4 in
  let now = ref 1_000 in
  let steps = ref [] in
  let push s = steps := s :: !steps in
  let advance () =
    now := !now + 1 + Rng.int rng 1_000_000;
    (* Occasionally jump past the timeout horizon so idle/hard expiry
       (and the cache invalidation it causes) actually happens. *)
    if Rng.int rng 16 = 0 then now := !now + Rng.int rng 2_500_000_000
  in
  let recent : (int * Packet.t) list ref = ref [] in
  let n_init = 2 + Rng.int rng 6 in
  for _ = 1 to n_init do
    push
      (Msg
         {
           now_ns = !now;
           msg = Msg_.Flow_mod (gen_flow_mod rng ~tables ~ports ~force_add:true);
         });
    advance ()
  done;
  let n = 20 + Rng.int rng 40 in
  for _ = 1 to n do
    (match Rng.int rng 100 with
    | x when x < 45 ->
        let in_port, pkt =
          match !recent with
          | (p, k) :: _ when Rng.int rng 3 = 0 ->
              (* Resend an earlier packet verbatim: the EMC-hit path. *)
              (p, k)
          | _ ->
              let p = Rng.int rng ports and k = gen_packet rng in
              recent := (p, k) :: !recent;
              (p, k)
        in
        push (Packet { now_ns = !now; in_port; pkt })
    | x when x < 75 ->
        push
          (Msg
             {
               now_ns = !now;
               msg =
                 Msg_.Flow_mod (gen_flow_mod rng ~tables ~ports ~force_add:false);
             })
    | x when x < 82 ->
        push (Msg { now_ns = !now; msg = Msg_.Group_mod (gen_group_mod rng ~ports) })
    | x when x < 89 ->
        push (Msg { now_ns = !now; msg = Msg_.Meter_mod (gen_meter_mod rng) })
    | _ -> push (Expire { now_ns = !now }));
    advance ()
  done;
  { tables; ports; steps = List.rev !steps }

(* ---- the harness ---- *)

let check sc =
  match run_scenario sc with
  | None -> None
  | Some d ->
      Some (Fuzz.shrink (fun steps -> run_scenario { sc with steps }) sc.steps d)

let check_case ~seed = check (gen_scenario (Rng.create seed))

type 'd report = 'd Fuzz.report = {
  cases : int;
  packets : int;
  divergences : 'd list;
}

let count_packets sc =
  List.length (List.filter (function Packet _ -> true | _ -> false) sc.steps)

let run ?on_divergence ~seed ~cases () =
  Fuzz.run ?on_divergence
    ~gen:(fun seed -> gen_scenario (Rng.create seed))
    ~packets:count_packets ~check ~seed ~cases ()

(* ---- repro files ---- *)

let to_string sc =
  let b = Buffer.create 1024 in
  Buffer.add_string b "# harmless differential repro v1\n";
  Printf.bprintf b "tables %d\nports %d\n" sc.tables sc.ports;
  List.iter
    (function
      | Msg { now_ns; msg } ->
          Printf.bprintf b "msg %d %s\n" now_ns
            (Hex.encode (Openflow.Of_codec.encode msg))
      | Expire { now_ns } -> Printf.bprintf b "expire %d\n" now_ns
      | Packet { now_ns; in_port; pkt } -> Fuzz.add_packet b ~now_ns ~in_port pkt)
    sc.steps;
  Buffer.contents b

let of_string text =
  let ( let* ) = Result.bind in
  let directive (sc, steps) = function
    | [ "tables"; n ] ->
        Some
          (let* n = Fuzz.int_of n ~what:"table count" in
           Ok ({ sc with tables = n }, steps))
    | [ "ports"; n ] ->
        Some
          (let* n = Fuzz.int_of n ~what:"port count" in
           Ok ({ sc with ports = n }, steps))
    | [ "msg"; now; hex ] ->
        Some
          (let* now_ns = Fuzz.int_of now ~what:"timestamp" in
           let* bytes = Hex.decode hex in
           let* msg, _xid =
             Openflow.Of_codec.decode_result bytes
             |> Result.map_error (fun e -> "bad flow-mod frame: " ^ e)
           in
           Ok (sc, Msg { now_ns; msg } :: steps))
    | [ "expire"; now ] ->
        Some
          (let* now_ns = Fuzz.int_of now ~what:"timestamp" in
           Ok (sc, Expire { now_ns } :: steps))
    | _ -> None
  in
  let packet (sc, steps) ~now_ns ~in_port pkt =
    (sc, Packet { now_ns; in_port; pkt } :: steps)
  in
  let* sc, steps =
    Fuzz.parse ~directive ~packet ({ tables = 4; ports = 4; steps = [] }, []) text
  in
  Ok { sc with steps = List.rev steps }

let save ~path ?comment sc = Fuzz.save ~path ?comment (to_string sc)
let load ~path = Fuzz.load ~path ~of_string ~run:run_scenario

let pp_divergence fmt d =
  Format.fprintf fmt
    "@[<v>divergence: backend %s disagrees with the oracle at step %d@,\
     expected %s@,\
     actual   %s@,\
     repro (%d steps):@,%s@]"
    d.backend d.step_index d.expected d.actual
    (List.length d.scenario.steps)
    (to_string d.scenario)
