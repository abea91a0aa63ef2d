open Simnet

type scenario = {
  num_hosts : int;
  apps : unit -> Sdnctl.Controller.app list;
  traffic : Deployment.t -> unit;
  warmup : Sim_time.span;
  duration : Sim_time.span;
}

type verdict = {
  equivalent : bool;
  mismatches : string list;
  plain_delivered : int;
  harmless_delivered : int;
}

(* Record what each host's stack sees: the encoded frames addressed to
   it (unicast to its MAC, or group-addressed).  Spurious flood copies
   addressed to other MACs are excluded — see the interface comment.
   The returned function reads each host's record as a sorted multiset. *)
let record_delivered deployment =
  let records =
    Array.map
      (fun h ->
        let frames = ref [] in
        Host.on_receive h (fun (pkt : Netpkt.Packet.t) ->
            if
              Netpkt.Mac_addr.equal pkt.Netpkt.Packet.dst (Host.mac h)
              || not (Netpkt.Mac_addr.is_unicast pkt.Netpkt.Packet.dst)
            then frames := Netpkt.Packet.encode pkt :: !frames);
        frames)
      deployment.Deployment.hosts
  in
  fun () -> Array.map (fun frames -> List.sort String.compare !frames) records

let run_one scenario deployment =
  let engine = deployment.Deployment.engine in
  let delivered_frames = record_delivered deployment in
  let ctrl = Sdnctl.Controller.create engine () in
  List.iter (Sdnctl.Controller.add_app ctrl) (scenario.apps ());
  ignore
    (Sdnctl.Controller.attach_switch ctrl
       (Deployment.controller_switch deployment));
  Engine.run engine ~until:(Sim_time.add (Engine.now engine) scenario.warmup);
  scenario.traffic deployment;
  Engine.run engine
    ~until:(Sim_time.add (Engine.now engine) scenario.duration);
  delivered_frames ()

let run scenario =
  let plain_engine = Engine.create () in
  let plain =
    Deployment.build_plain_openflow plain_engine ~num_hosts:scenario.num_hosts ()
  in
  let plain_frames = run_one scenario plain in
  let harmless_engine = Engine.create () in
  match
    Deployment.build_harmless harmless_engine ~num_hosts:scenario.num_hosts ()
  with
  | Error msg -> Error msg
  | Ok harmless ->
      let harmless_frames = run_one scenario harmless in
      let mismatches = ref [] in
      Array.iteri
        (fun i plain_list ->
          let harmless_list = harmless_frames.(i) in
          if plain_list <> harmless_list then
            mismatches :=
              Printf.sprintf
                "host %d: plain OF delivered %d frame(s), HARMLESS %d (or contents differ)"
                i (List.length plain_list)
                (List.length harmless_list)
              :: !mismatches)
        plain_frames;
      let count frames =
        Array.fold_left (fun acc l -> acc + List.length l) 0 frames
      in
      Ok
        {
          equivalent = !mismatches = [];
          mismatches = List.rev !mismatches;
          plain_delivered = count plain_frames;
          harmless_delivered = count harmless_frames;
        }
