open Netpkt
module P = Openflow.Pipeline
module Rng = Simnet.Rng
module Fault = Simnet.Fault
module Port_map = Harmless.Port_map
module Translator = Harmless.Translator
module Chaos = Harmless.Chaos
module SS = Softswitch.Soft_switch

type violation = { context : string; detail : string }

let pp_violation fmt v = Format.fprintf fmt "[%s] %s" v.context v.detail

(* ---- the pure hairpin check ---- *)

let gen_port_map rng =
  let n = 1 + Rng.int rng 6 in
  let rec draw acc k =
    if k = 0 then acc
    else
      let p = Rng.int rng 24 in
      if List.mem p acc then draw acc k else draw (p :: acc) (k - 1)
  in
  let access_ports = draw [] n in
  let base_vid = 2 + Rng.int rng 1000 in
  Port_map.make ~base_vid ~access_ports ()

let rec strip_tags pkt =
  match Packet.pop_vlan pkt with
  | None -> pkt
  | Some (_, inner) -> strip_tags inner

let render_outputs outputs =
  Format.asprintf "%s"
    (String.concat ";"
       (List.map
          (function
            | P.Port (p, o) -> Format.asprintf "port:%d:%a" p Packet.pp o
            | P.In_port o -> Format.asprintf "in_port:%a" Packet.pp o
            | P.Flood o -> Format.asprintf "flood:%a" Packet.pp o
            | P.All_ports o -> Format.asprintf "all:%a" Packet.pp o
            | P.Controller (n, o) ->
                Format.asprintf "controller:%d:%a" n Packet.pp o)
          outputs))

let check_hairpin ~seed =
  let rng = Rng.create seed in
  let map = gen_port_map rng in
  let vids = Port_map.vids map in
  let bases =
    List.init 3 (fun _ -> strip_tags (Differential.gen_packet rng))
  in
  let unknown_vid =
    List.find (fun v -> not (List.mem v vids)) [ 4094; 2; 3; 1500 ]
  in
  let violations = ref [] in
  let add context detail =
    if List.length !violations < 32 then
      violations := { context; detail } :: !violations
  in
  List.iter
    (fun (impl, pipeline, dp) ->
      List.iter
        (fun fm ->
          ignore (P.apply pipeline ~now_ns:0 (Openflow.Of_message.Flow_mod fm)))
        (Translator.rules map);
      let process ~in_port pkt =
        dp.Softswitch.Dataplane.process ~now_ns:1000 ~in_port pkt
      in
      let ctx what i = Format.sprintf "%s/%s/logical-%d" impl what i in
      List.iteri
        (fun case base ->
          ignore case;
          (* Per managed port: trunk->patch pops the tag, patch->trunk
             pushes it back, and composing the two is the identity. *)
          List.iteri
            (fun i _access ->
              let v =
                match Port_map.vid_of_logical map i with
                | Some v -> v
                | None -> assert false
              in
              let patch = Translator.patch_port_of_logical i in
              (* trunk -> patch: tag in, bare frame out the patch port. *)
              let tagged = Packet.push_vlan (Vlan.make v) base in
              let r = process ~in_port:Translator.trunk_port tagged in
              (match r.P.outputs with
              | [ P.Port (p, out) ]
                when p = patch && Packet.equal out base && not r.P.table_miss
                ->
                  ()
              | outs ->
                  add (ctx "from-trunk" i)
                    (Format.asprintf "vid %d: expected bare frame on port %d, got %s%s"
                       v patch (render_outputs outs)
                       (if r.P.table_miss then " (miss)" else "")));
              (* patch -> trunk: bare frame in, exactly one fresh tag with
                 the port's VLAN out the trunk. *)
              let r = process ~in_port:patch base in
              let trunk_frame =
                match r.P.outputs with
                | [ P.Port (p, out) ] when p = Translator.trunk_port -> (
                    match Packet.pop_vlan out with
                    | Some (tag, rest)
                      when tag.Vlan.vid = v && Packet.equal rest base ->
                        Some out
                    | _ ->
                        add (ctx "to-trunk" i)
                          (Format.asprintf
                             "expected exactly one tag vid %d, got %a" v
                             Packet.pp out);
                        None)
                | outs ->
                    add (ctx "to-trunk" i)
                      (Format.asprintf "expected one output on trunk, got %s"
                         (render_outputs outs));
                    None
              in
              (* hairpin symmetry: what went up the trunk comes back down
                 to the same patch port, bit-identical to the original. *)
              match trunk_frame with
              | None -> ()
              | Some frame -> (
                  let r = process ~in_port:Translator.trunk_port frame in
                  match r.P.outputs with
                  | [ P.Port (p, out) ] when p = patch && Packet.equal out base
                    ->
                      ()
                  | outs ->
                      add (ctx "hairpin" i)
                        (Format.asprintf
                           "round trip broke: expected original on port %d, got %s"
                           patch (render_outputs outs))))
            (Port_map.access_ports map);
          (* Unknown VLANs and untagged trunk frames must miss and drop. *)
          let check_drop what pkt =
            let r = process ~in_port:Translator.trunk_port pkt in
            if r.P.outputs <> [] || not r.P.table_miss then
              add (Format.sprintf "%s/%s" impl what)
                (Format.asprintf "expected miss+drop, got %s%s"
                   (render_outputs r.P.outputs)
                   (if r.P.table_miss then " (miss)" else " (matched)"))
          in
          check_drop "unknown-vid"
            (Packet.push_vlan (Vlan.make unknown_vid) base);
          check_drop "untagged-trunk" base)
        bases)
    (Fuzz.implementations ~num_tables:1);
  List.rev !violations

(* ---- the end-to-end check under faults ---- *)

type report = {
  seed : int;
  trunk_frames : int;
  patch_frames : int;
  host_frames : int;
  packet_ins : int;
  faults_injected : int;
  violations : violation list;
  chaos : Chaos.report;
}

let run ?(num_hosts = 3) ?(fault_count = 5)
    ?(duration = Simnet.Sim_time.ms 30) ~seed () =
  let engine = Simnet.Engine.create () in
  match Chaos.build engine ~num_hosts ~seed () with
  | Error e -> Error ("chaos rig: " ^ e)
  | Ok rig -> (
      let violations = ref [] in
      let add context detail =
        if List.length !violations < 32 then
          violations := { context; detail } :: !violations
      in
      let map = Chaos.port_map rig in
      let vids = Port_map.vids map in
      let ss1 = Chaos.ss1 rig in
      let packet_ins = ref 0 in
      (* SS_1's whole point is that the controller never learns the VLAN
         trick exists: no packet-in, from either switch, may carry a tag. *)
      let observe which sw =
        SS.observe_messages_to_controller sw (function
          | Openflow.Of_message.Packet_in { packet; _ } ->
              incr packet_ins;
              if packet.Packet.vlans <> [] then
                add
                  (which ^ "/packet-in")
                  (Format.asprintf "controller saw a VLAN header: %a"
                     Packet.pp packet)
          | _ -> ())
      in
      observe "ss1" ss1;
      observe "ss2" (Chaos.ss2 rig);
      let capture = Simnet.Capture.create () in
      Simnet.Capture.attach capture (SS.node ss1);
      Array.iter
        (fun h -> Simnet.Capture.attach capture (Simnet.Host.node h))
        (Chaos.hosts rig);
      let host_names =
        Array.to_list
          (Array.map (fun h -> Simnet.Host.name h) (Chaos.hosts rig))
      in
      let rng = Rng.create (seed lxor 0x5eed) in
      let injector = Chaos.injector rig in
      let script =
        if fault_count = 0 then ""
        else
          Fault.to_script
            (Fault.random_events rng ~targets:(Fault.targets injector)
               ~n:fault_count ~horizon:duration)
      in
      match Chaos.run rig ~script ~duration () with
      | Error e -> Error ("chaos run: " ^ e)
      | Ok chaos ->
          let trunk_frames = ref 0
          and patch_frames = ref 0
          and host_frames = ref 0 in
          let ss1_name = SS.name ss1 in
          let first_patch =
            Simnet.Node.port_count (SS.node ss1) - Port_map.size map
          in
          List.iter
            (fun (e : Simnet.Capture.entry) ->
              let pkt = e.packet in
              let where =
                Format.sprintf "%s:%s:%d" e.node
                  (match e.dir with Simnet.Node.Rx -> "rx" | Tx -> "tx")
                  e.port
              in
              if e.node = ss1_name then
                if e.port < first_patch then begin
                  (* The trunk NICs: every frame carries exactly one tag,
                     with a managed VLAN. *)
                  incr trunk_frames;
                  match pkt.Packet.vlans with
                  | [ tag ] when List.mem tag.Vlan.vid vids -> ()
                  | [ tag ] ->
                      add "trunk"
                        (Format.sprintf "%s: unmanaged vid %d on the trunk"
                           where tag.Vlan.vid)
                  | [] ->
                      add "trunk"
                        (Format.asprintf "%s: untagged frame on the trunk: %a"
                           where Packet.pp pkt)
                  | _ ->
                      add "trunk"
                        (Format.asprintf "%s: stacked tags on the trunk: %a"
                           where Packet.pp pkt)
                end
                else begin
                  (* Patch ports towards SS_2: the tag must be gone. *)
                  incr patch_frames;
                  if pkt.Packet.vlans <> [] then
                    add "patch"
                      (Format.asprintf "%s: tagged frame on a patch port: %a"
                         where Packet.pp pkt)
                end
              else if List.mem e.node host_names then begin
                incr host_frames;
                if pkt.Packet.vlans <> [] then
                  add "host"
                    (Format.asprintf "%s: host saw a tagged frame: %a" where
                       Packet.pp pkt)
              end)
            (Simnet.Capture.entries capture);
          Ok
            {
              seed;
              trunk_frames = !trunk_frames;
              patch_frames = !patch_frames;
              host_frames = !host_frames;
              packet_ins = !packet_ins;
              faults_injected = Fault.faults_injected injector;
              violations = List.rev !violations;
              chaos;
            })
