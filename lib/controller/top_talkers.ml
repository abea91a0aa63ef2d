open Netpkt

type t = { mutable pollers : Stats_poller.t list }

let create () = { pollers = [] }

let attach_poller t p = t.pollers <- p :: t.pollers

(* Exact byte accounting from the monitoring plane: fold the attached
   pollers' latest flow stats, attributing each /32-source-matched flow's
   cumulative bytes to that source.  Counters are monotonic, so for a
   source seen by several flows/pollers the per-flow maxima sum to the
   freshest total. *)
let polled_bytes t =
  let acc : (Ipv4_addr.t, (string, int) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 32
  in
  List.iter
    (fun p ->
      List.iter
        (fun (s : Openflow.Of_message.flow_stat) ->
          match s.Openflow.Of_message.stat_match.Openflow.Of_match.ip_src with
          | Some prefix when Ipv4_addr.Prefix.length prefix = 32 ->
              let src = Ipv4_addr.Prefix.base prefix in
              let per_flow =
                match Hashtbl.find_opt acc src with
                | Some h -> h
                | None ->
                    let h = Hashtbl.create 4 in
                    Hashtbl.replace acc src h;
                    h
              in
              let key =
                Format.asprintf "%Ld/%d/%d/%a" (Stats_poller.dpid p)
                  s.Openflow.Of_message.stat_table_id
                  s.Openflow.Of_message.stat_priority Openflow.Of_match.pp
                  s.Openflow.Of_message.stat_match
              in
              let prev =
                Option.value (Hashtbl.find_opt per_flow key) ~default:0
              in
              Hashtbl.replace per_flow key
                (max prev s.Openflow.Of_message.stat_bytes)
          | Some _ | None -> ())
        (Stats_poller.latest_flows p))
    t.pollers;
  Hashtbl.fold
    (fun src per_flow l ->
      (src, Hashtbl.fold (fun _ b sum -> sum + b) per_flow 0) :: l)
    acc []

let byte_ranking t =
  polled_bytes t
  |> List.sort (fun (ia, a) (ib, b) ->
         (* Total order — bytes desc, then address asc — so ranks never
            depend on hash-table iteration order. *)
         match Int.compare b a with 0 -> Ipv4_addr.compare ia ib | c -> c)
