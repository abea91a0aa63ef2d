open Netpkt

type limit = {
  subject : Ipv4_addr.t;
  rate_kbps : int;
  burst_kb : int;
}

let rec check_distinct = function
  | [] -> ()
  | limit :: rest ->
      if List.exists (fun l -> Ipv4_addr.equal l.subject limit.subject) rest then
        invalid_arg
          (Printf.sprintf "Rate_limiter: duplicate subject %s"
             (Ipv4_addr.to_string limit.subject));
      check_distinct rest

let fragment ~limits () =
  check_distinct limits;
  let open Policy.Syntax in
  let subject_pred limit =
    conj [ eth_type_is 0x0800; ip_src_is limit.subject ]
  in
  (* Exactly one branch applies per packet: a per-subject meter or the
     unmetered pass-through. *)
  unions
    (List.mapi
       (fun i limit ->
         seq
           (filter (subject_pred limit))
           (police ~meter_id:(i + 1) ~rate_kbps:limit.rate_kbps
              ~burst_kb:limit.burst_kb))
       limits
    @ [ filter (neg (disj (List.map subject_pred limits))) ])

let policy ~limits forward =
  let open Policy.Syntax in
  (* Metered traffic that [forward] does not deliver still bills its
     meter: the explicit [discard] keeps the meter on the path. *)
  seq (fragment ~limits ()) (orelse forward discard)

let create ~limits forward =
  Controller.policy_app "rate-limiter"
    (Policy.Compile.compile (policy ~limits forward))

let table1_fragment ~num_hosts () =
  let open Policy.Syntax in
  (* ARP floods whatever its destination MAC; the MAC forwards carry no
     eth_type test, so the bands chain by fallback rather than union. *)
  orelse
    (seq (filter (eth_type_is 0x0806)) flood)
    (unions
       (List.init num_hosts (fun i ->
            seq (filter (eth_dst_is (Mac_addr.make_local (i + 1)))) (fwd i))))

let table1_l2 ~num_hosts =
  Controller.policy_app "table1-l2"
    (Policy.Compile.compile ~table_id:1 (table1_fragment ~num_hosts ()))
