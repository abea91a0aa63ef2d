open Netpkt
module P = Openflow.Pipeline
module Rng = Simnet.Rng
module Syn = Policy.Syntax

type spec = {
  spec_name : string;
  ports : int;
  policy : Syn.t;
  table : Openflow.Of_message.t list;
  mac_pool : Mac_addr.t list;
  ip_pool : Ipv4_addr.t list;
  l4_pool : int list;
}

type step = { now_ns : int; in_port : int; pkt : Packet.t }
type case = { spec : spec; steps : step list }

type divergence = {
  impl : string;
  step_index : int;
  expected : string;
  actual : string;
  case : case;
}

(* ---- the built-in specs ---- *)

let ip = Ipv4_addr.of_string
let mac = Mac_addr.make_local

(* A built-in spec checks the compile of its policy. *)
let spec ~name ~ports ~mac_pool ~ip_pool ~l4_pool policy =
  {
    spec_name = name;
    ports;
    policy;
    table = Policy.Compile.messages (Policy.Compile.compile policy);
    mac_pool;
    ip_pool;
    l4_pool;
  }

let dmz_spec () =
  let vm i = { Sdnctl.Dmz.vm_ip = ip (Printf.sprintf "10.0.0.%d" i);
               vm_mac = mac (0x20 + i); vm_port = i - 1 } in
  let vm1 = vm 1 and vm2 = vm 2 and vm3 = vm 3 in
  let policy =
    { Sdnctl.Dmz.vms = [ vm1; vm2; vm3 ];
      allowed =
        [ (vm1.Sdnctl.Dmz.vm_ip, vm2.Sdnctl.Dmz.vm_ip);
          (vm1.Sdnctl.Dmz.vm_ip, vm3.Sdnctl.Dmz.vm_ip) ] }
  in
  spec ~name:"dmz" ~ports:4
    ~mac_pool:[ mac 0x21; mac 0x22; mac 0x23; Mac_addr.broadcast; mac 0x99 ]
    ~ip_pool:[ ip "10.0.0.1"; ip "10.0.0.2"; ip "10.0.0.3"; ip "192.0.2.1" ]
    ~l4_pool:[ 80; 443 ]
    (Sdnctl.Dmz.fragment policy ())

let lb_spec () =
  let backends =
    List.init 3 (fun i ->
        { Sdnctl.Load_balancer.backend_ip = ip (Printf.sprintf "10.9.1.%d" (i + 1));
          backend_mac = mac (0xb1 + i); backend_port = i + 1 })
  in
  let vip_ip = ip "10.9.0.9" and vip_mac = mac 0x91 in
  spec ~name:"lb" ~ports:4
    ~mac_pool:
      ((vip_mac
       :: List.map (fun b -> b.Sdnctl.Load_balancer.backend_mac) backends)
      @ [ Mac_addr.broadcast; mac 0x99 ])
    ~ip_pool:
      ((vip_ip :: List.map (fun b -> b.Sdnctl.Load_balancer.backend_ip) backends)
      @ [ ip "192.0.2.1" ])
    ~l4_pool:[ 80; 8080 ]
    (Sdnctl.Load_balancer.fragment ~vip_ip ~vip_mac ~ingress_port:0 ~backends ())

let parental_spec () =
  let t =
    Sdnctl.Parental_control.create
      ~sites:
        [ ("blocked.example", ip "203.0.113.5");
          ("other.example", ip "203.0.113.7") ]
      ~blocked:
        [ (ip "10.5.0.1", "blocked.example");
          (ip "10.5.0.2", "nosuch.example");
          (* user 1 carries a drop *and* a sniff rule *)
          (ip "10.5.0.1", "nosuch.example") ]
      ()
  in
  spec ~name:"parental" ~ports:3
    ~mac_pool:[ mac 0x51; mac 0x52; Mac_addr.broadcast ]
    ~ip_pool:
      [ ip "10.5.0.1"; ip "10.5.0.2"; ip "10.5.0.3";
        ip "203.0.113.5"; ip "203.0.113.7"; ip "192.0.2.1" ]
      (* 80 twice: blocked-site traffic is the interesting half *)
    ~l4_pool:[ 80; 80; 443 ]
    (Sdnctl.Parental_control.fragment t)

let ratelimit_spec () =
  let limits =
    [ { Sdnctl.Rate_limiter.subject = ip "10.7.0.1"; rate_kbps = 512; burst_kb = 16 };
      { Sdnctl.Rate_limiter.subject = ip "10.7.0.2"; rate_kbps = 256; burst_kb = 8 } ]
  in
  let num_hosts = 4 in
  spec ~name:"ratelimit" ~ports:4
    ~mac_pool:
      (List.init num_hosts (fun i -> mac (i + 1))
      @ [ Mac_addr.broadcast; mac 0x99 ])
    ~ip_pool:[ ip "10.7.0.1"; ip "10.7.0.2"; ip "10.7.0.3" ]
    ~l4_pool:[ 53; 80 ]
    (Sdnctl.Rate_limiter.policy ~limits
       (Sdnctl.Rate_limiter.table1_fragment ~num_hosts ()))

let gateway_spec () =
  let g = Sdnctl.Gateway.default () in
  spec ~name:"gateway" ~ports:g.Sdnctl.Gateway.num_ports
    ~mac_pool:(Sdnctl.Gateway.macs g) ~ip_pool:(Sdnctl.Gateway.ips g)
    ~l4_pool:(Sdnctl.Gateway.l4_ports g) (Sdnctl.Gateway.policy g)

let builders =
  [ ("dmz", dmz_spec); ("lb", lb_spec); ("parental", parental_spec);
    ("ratelimit", ratelimit_spec); ("gateway", gateway_spec) ]

let specs () = List.map (fun (_, build) -> build ()) builders
let find_spec name = Option.map (fun build -> build ()) (List.assoc_opt name builders)

(* ---- normalization ---- *)

let normalize ~in_port (r : P.result) =
  let render = function
    | P.In_port pkt -> Differential.render_output (P.Port (in_port, pkt))
    | out -> Differential.render_output out
  in
  "["
  ^ String.concat " "
      (List.sort_uniq String.compare (List.map render r.P.outputs))
  ^ "]"
  ^ if r.P.table_miss then " miss" else ""

(* ---- running a case across every implementation ---- *)

let run_case case =
  let sp = case.spec in
  let interp = Policy.Interp.create sp.policy in
  let impls =
    List.map
      (fun (name, pipeline, dp) ->
        List.iter (fun msg -> ignore (P.apply pipeline ~now_ns:0 msg)) sp.table;
        ("compiled:" ^ name, dp))
      (Fuzz.implementations ~num_tables:1)
  in
  let rec go i = function
    | [] -> None
    | s :: rest -> (
        let expected =
          normalize ~in_port:s.in_port
            (Policy.Interp.run interp ~now_ns:s.now_ns ~in_port:s.in_port s.pkt)
        in
        let diverges (impl, dp) =
          let actual =
            normalize ~in_port:s.in_port
              (dp.Softswitch.Dataplane.process ~now_ns:s.now_ns
                 ~in_port:s.in_port s.pkt)
          in
          if actual = expected then None
          else Some { impl; step_index = i; expected; actual; case }
        in
        match List.find_map diverges impls with
        | Some d -> Some d
        | None -> go (i + 1) rest)
  in
  go 0 case.steps

(* ---- generation ---- *)

let pick rng l = List.nth l (Rng.int rng (List.length l))
let vid_pool = [ 101; 102 ]

let gen_packet rng sp =
  let m () = pick rng sp.mac_pool in
  let i () = pick rng sp.ip_pool in
  let l () = pick rng sp.l4_pool in
  match Rng.int rng 8 with
  | 0 -> Packet.arp_request ~src_mac:(m ()) ~src_ip:(i ()) ~target_ip:(i ())
  | 1 ->
      Packet.icmp_echo ~dst:(m ()) ~src:(m ()) ~ip_src:(i ()) ~ip_dst:(i ())
        ~id:7 ~seq:1
  | n ->
      let vlans =
        if Rng.int rng 4 = 0 then [ Vlan.make (pick rng vid_pool) ] else []
      in
      let mk = if n land 1 = 0 then Packet.udp else Packet.tcp ?flags:None in
      mk ~vlans ~dst:(m ()) ~src:(m ()) ~ip_src:(i ()) ~ip_dst:(i ())
        ~src_port:(l ()) ~dst_port:(l ()) "payload"

let gen_case sp ~seed =
  let rng = Rng.create seed in
  let now = ref 1_000 in
  let n = 15 + Rng.int rng 26 in
  let steps =
    List.init n (fun _ ->
        let s =
          { now_ns = !now;
            in_port = Rng.int rng sp.ports;
            pkt = gen_packet rng sp }
        in
        now := !now + 1 + Rng.int rng 1_000_000;
        (* Occasionally jump far enough that depleted meter buckets
           refill, so both the recovering and the depleted token-bucket
           paths are compared. *)
        if Rng.int rng 8 = 0 then now := !now + Rng.int rng 2_500_000_000;
        s)
  in
  { spec = sp; steps }

(* ---- the harness ---- *)

let check case =
  match run_case case with
  | None -> None
  | Some d ->
      Some (Fuzz.shrink (fun steps -> run_case { case with steps }) case.steps d)

let check_case sp ~seed = check (gen_case sp ~seed)

type 'd report = 'd Fuzz.report = {
  cases : int;
  packets : int;
  divergences : 'd list;
}

let run ?on_divergence ~spec ~seed ~cases () =
  Fuzz.run ?on_divergence
    ~gen:(fun seed -> gen_case spec ~seed)
    ~packets:(fun case -> List.length case.steps)
    ~check
    ~seed ~cases ()

(* ---- repro files ---- *)

let to_string case =
  let b = Buffer.create 1024 in
  Buffer.add_string b "# harmless policy-equiv repro v1\n";
  Printf.bprintf b "spec %s\n" case.spec.spec_name;
  List.iter
    (fun s -> Fuzz.add_packet b ~now_ns:s.now_ns ~in_port:s.in_port s.pkt)
    case.steps;
  Buffer.contents b

let of_string text =
  let directive (_, steps) = function
    | [ "spec"; name ] ->
        Some
          (match find_spec name with
          | Some sp -> Ok (Some sp, steps)
          | None -> Error (Printf.sprintf "unknown spec %S" name))
    | _ -> None
  in
  let packet (sp, steps) ~now_ns ~in_port pkt =
    (sp, { now_ns; in_port; pkt } :: steps)
  in
  match Fuzz.parse ~directive ~packet (None, []) text with
  | Error e -> Error e
  | Ok (None, _) -> Error "no spec directive"
  | Ok (Some sp, steps) -> Ok { spec = sp; steps = List.rev steps }

let save ~path ?comment case = Fuzz.save ~path ?comment (to_string case)
let load ~path = Fuzz.load ~path ~of_string ~run:run_case

let pp_divergence fmt d =
  Format.fprintf fmt
    "@[<v>divergence: %s disagrees with the interpreter at step %d@,\
     expected %s@,\
     actual   %s@,\
     repro (%d packets):@,%s@]"
    d.impl d.step_index d.expected d.actual
    (List.length d.case.steps)
    (to_string d.case)
