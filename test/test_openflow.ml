open Openflow
open Netpkt

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let prop name ?(count = 200) gen ~print f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen f)

let mac i = Mac_addr.make_local i
let ip = Ipv4_addr.of_string
let prefix = Ipv4_addr.Prefix.of_string

let udp_pkt ?vlans ?(dst = mac 2) ?(src = mac 1) ?(ip_src = ip "10.0.0.1")
    ?(ip_dst = ip "10.0.0.2") ?(sport = 1000) ?(dport = 80) () =
  Packet.udp ?vlans ~dst ~src ~ip_src ~ip_dst ~src_port:sport ~dst_port:dport
    "payload..."

let matches m ~in_port pkt = Of_match.matches_packet m ~in_port pkt

(* ---- Matching ---- *)

(* [m] rebuilt from fresh blocks: structurally equal, physically shared
   with [m] in no field. *)
let fresh_copy (m : Of_match.t) =
  let opt f = function None -> None | Some x -> Some (f x) in
  let mac v = Mac_addr.of_string (Mac_addr.to_string v) in
  let mac_test (t : Of_match.mac_test) =
    { Of_match.value = mac t.Of_match.value; mask = mac t.Of_match.mask }
  in
  let prefix p = Ipv4_addr.Prefix.of_string (Ipv4_addr.Prefix.to_string p) in
  let vlan = function
    | Of_match.Vid v -> Of_match.Vid v
    | (Of_match.Absent | Of_match.Present) as v -> v
  in
  {
    Of_match.in_port = opt Fun.id m.Of_match.in_port;
    eth_dst = opt mac_test m.Of_match.eth_dst;
    eth_src = opt mac_test m.Of_match.eth_src;
    eth_type = opt Fun.id m.Of_match.eth_type;
    vlan = opt vlan m.Of_match.vlan;
    vlan_pcp = opt Fun.id m.Of_match.vlan_pcp;
    ip_src = opt prefix m.Of_match.ip_src;
    ip_dst = opt prefix m.Of_match.ip_dst;
    ip_proto = opt Fun.id m.Of_match.ip_proto;
    ip_tos = opt Fun.id m.Of_match.ip_tos;
    l4_src = opt Fun.id m.Of_match.l4_src;
    l4_dst = opt Fun.id m.Of_match.l4_dst;
  }

(* [a] with its field number [i] taken from [b]. *)
let splice i (a : Of_match.t) (b : Of_match.t) =
  match i with
  | 0 -> { a with Of_match.in_port = b.Of_match.in_port }
  | 1 -> { a with Of_match.eth_dst = b.Of_match.eth_dst }
  | 2 -> { a with Of_match.eth_src = b.Of_match.eth_src }
  | 3 -> { a with Of_match.eth_type = b.Of_match.eth_type }
  | 4 -> { a with Of_match.vlan = b.Of_match.vlan }
  | 5 -> { a with Of_match.vlan_pcp = b.Of_match.vlan_pcp }
  | 6 -> { a with Of_match.ip_src = b.Of_match.ip_src }
  | 7 -> { a with Of_match.ip_dst = b.Of_match.ip_dst }
  | 8 -> { a with Of_match.ip_proto = b.Of_match.ip_proto }
  | 9 -> { a with Of_match.ip_tos = b.Of_match.ip_tos }
  | 10 -> { a with Of_match.l4_src = b.Of_match.l4_src }
  | _ -> { a with Of_match.l4_dst = b.Of_match.l4_dst }

(* Independent pairs, pairs built equal from separate blocks, and pairs
   that differ in at most one field. *)
let match_pair_gen =
  let open QCheck2.Gen in
  let* a = Gen.small_match_gen in
  oneof
    [
      map (fun b -> (a, b)) Gen.small_match_gen;
      return (a, fresh_copy a);
      map2 (fun i b -> (a, fresh_copy (splice i a b))) (int_bound 11) Gen.small_match_gen;
    ]

let match_tests =
  [
    tc "wildcard matches everything" (fun () ->
        check Alcotest.bool "udp" true (matches Of_match.any ~in_port:3 (udp_pkt ()));
        check Alcotest.bool "arp" true
          (matches Of_match.any ~in_port:0
             (Packet.arp_request ~src_mac:(mac 1) ~src_ip:(ip "10.0.0.1")
                ~target_ip:(ip "10.0.0.2"))));
    tc "in_port" (fun () ->
        let m = Of_match.(any |> in_port 3) in
        check Alcotest.bool "hit" true (matches m ~in_port:3 (udp_pkt ()));
        check Alcotest.bool "miss" false (matches m ~in_port:4 (udp_pkt ())));
    tc "eth_dst exact and masked" (fun () ->
        let m = Of_match.(any |> eth_dst (mac 2)) in
        check Alcotest.bool "hit" true (matches m ~in_port:0 (udp_pkt ()));
        check Alcotest.bool "miss" false
          (matches m ~in_port:0 (udp_pkt ~dst:(mac 3) ()));
        (* mask on the OUI bytes only *)
        let oui_mask = Mac_addr.of_string "ff:ff:ff:00:00:00" in
        let m = Of_match.(any |> eth_dst ~mask:oui_mask (mac 2)) in
        check Alcotest.bool "same oui" true
          (matches m ~in_port:0 (udp_pkt ~dst:(mac 9999) ())));
    tc "vlan absent/present/vid" (fun () ->
        let tagged = udp_pkt ~vlans:[ Vlan.make 101 ] () in
        let untagged = udp_pkt () in
        check Alcotest.bool "absent hits untagged" true
          (matches Of_match.(any |> vlan_absent) ~in_port:0 untagged);
        check Alcotest.bool "absent misses tagged" false
          (matches Of_match.(any |> vlan_absent) ~in_port:0 tagged);
        check Alcotest.bool "present hits tagged" true
          (matches Of_match.(any |> vlan_present) ~in_port:0 tagged);
        check Alcotest.bool "present misses untagged" false
          (matches Of_match.(any |> vlan_present) ~in_port:0 untagged);
        check Alcotest.bool "vid hits" true
          (matches Of_match.(any |> vid 101) ~in_port:0 tagged);
        check Alcotest.bool "vid misses" false
          (matches Of_match.(any |> vid 102) ~in_port:0 tagged));
    tc "ip prefix match" (fun () ->
        let m = Of_match.(any |> ip_dst (prefix "10.0.0.0/24")) in
        check Alcotest.bool "hit" true (matches m ~in_port:0 (udp_pkt ()));
        check Alcotest.bool "miss" false
          (matches m ~in_port:0 (udp_pkt ~ip_dst:(ip "10.0.1.2") ())));
    tc "ip field test fails on non-ip (prerequisite)" (fun () ->
        let m = Of_match.(any |> ip_src (prefix "10.0.0.1/32")) in
        let arp =
          Packet.arp_request ~src_mac:(mac 1) ~src_ip:(ip "10.0.0.1")
            ~target_ip:(ip "10.0.0.2")
        in
        check Alcotest.bool "arp misses" false (matches m ~in_port:0 arp));
    tc "l4 ports" (fun () ->
        let m = Of_match.(any |> ip_proto 17 |> l4_dst 80) in
        check Alcotest.bool "hit" true (matches m ~in_port:0 (udp_pkt ()));
        check Alcotest.bool "miss" false
          (matches m ~in_port:0 (udp_pkt ~dport:443 ())));
    tc "matches allocates nothing" (fun () ->
        let m =
          Of_match.(
            any |> in_port 1
            |> eth_dst ~mask:(Mac_addr.of_string "ff:ff:ff:00:00:00") (mac 2)
            |> eth_type 0x0800 |> vid 101 |> vlan_pcp 0
            |> ip_src (prefix "10.0.0.0/8") |> ip_dst (prefix "10.0.0.2/32")
            |> ip_proto 17 |> ip_tos 0 |> l4_src 1000 |> l4_dst 80)
        in
        let f = Packet.Fields.of_packet (udp_pkt ~vlans:[ Vlan.make 101 ] ()) in
        check Alcotest.bool "hit" true (Of_match.matches m ~in_port:1 f);
        let before = Gc.minor_words () in
        for _ = 1 to 1_000 do
          ignore (Sys.opaque_identity (Of_match.matches m ~in_port:1 f))
        done;
        check Alcotest.int "minor words per call" 0
          (int_of_float (Gc.minor_words () -. before) / 1_000));
    tc "wildcard_count" (fun () ->
        check Alcotest.int "any" 12 (Of_match.wildcard_count Of_match.any);
        check Alcotest.int "one" 11
          (Of_match.wildcard_count Of_match.(any |> in_port 1)));
    prop "equal is structural equality" ~count:2000 match_pair_gen
      ~print:(fun (a, b) -> Format.asprintf "%a vs %a" Of_match.pp a Of_match.pp b)
      (fun (a, b) -> Of_match.equal a b = (a = b));
    prop "subsumes is sound"
      (QCheck2.Gen.triple Gen.packet_gen
         (QCheck2.Gen.oneofl
            [
              Of_match.any;
              Of_match.(any |> eth_type 0x0800);
              Of_match.(any |> vlan_present);
              Of_match.(any |> ip_dst (prefix "10.0.0.0/8"));
              Of_match.(any |> ip_dst (prefix "10.1.0.0/16"));
              Of_match.(any |> in_port 1);
            ])
         (QCheck2.Gen.oneofl
            [
              Of_match.(any |> eth_type 0x0800 |> ip_dst (prefix "10.1.2.0/24"));
              Of_match.(any |> vid 101);
              Of_match.(any |> in_port 1 |> eth_type 0x0806);
              Of_match.any;
            ]))
      ~print:(fun (pkt, _, _) -> Gen.packet_print pkt)
      (fun (pkt, a, b) ->
        (* if a subsumes b, every packet matching b matches a (any port) *)
        (not (Of_match.subsumes a b))
        || (not (matches b ~in_port:1 pkt))
        || matches a ~in_port:1 pkt);
  ]

(* ---- Actions ---- *)

let action_tests =
  [
    tc "push/set/pop vlan" (fun () ->
        let pkt = udp_pkt () in
        let tagged = Of_action.apply_rewrite Of_action.Push_vlan pkt in
        check Alcotest.(option int) "pushed vid 0" (Some 0) (Packet.outer_vid tagged);
        let set = Of_action.apply_rewrite (Of_action.Set_vlan_vid 42) tagged in
        check Alcotest.(option int) "set" (Some 42) (Packet.outer_vid set);
        let popped = Of_action.apply_rewrite Of_action.Pop_vlan set in
        check Alcotest.bool "back" true (Packet.equal popped pkt));
    tc "set_vlan on untagged is a no-op" (fun () ->
        let pkt = udp_pkt () in
        check Alcotest.bool "unchanged" true
          (Packet.equal pkt (Of_action.apply_rewrite (Of_action.Set_vlan_vid 9) pkt)));
    tc "eth and ip rewrites" (fun () ->
        let pkt = udp_pkt () in
        let pkt = Of_action.apply_rewrite (Of_action.Set_eth_dst (mac 42)) pkt in
        let pkt = Of_action.apply_rewrite (Of_action.Set_ip_dst (ip "1.2.3.4")) pkt in
        check Alcotest.bool "mac" true (Mac_addr.equal pkt.Packet.dst (mac 42));
        match pkt.Packet.l3 with
        | Packet.Ip hdr ->
            check Alcotest.string "ip" "1.2.3.4" (Ipv4_addr.to_string hdr.Ipv4.dst)
        | _ -> Alcotest.fail "not ip");
    tc "l4 rewrite on udp and tcp" (fun () ->
        let u = Of_action.apply_rewrite (Of_action.Set_l4_dst 8080) (udp_pkt ()) in
        (match (Packet.Fields.of_packet u).Packet.Fields.l4_dst with
        | 8080 -> ()
        | _ -> Alcotest.fail "udp port not rewritten");
        let t =
          Packet.tcp ~dst:(mac 2) ~src:(mac 1) ~ip_src:(ip "10.0.0.1")
            ~ip_dst:(ip "10.0.0.2") ~src_port:5 ~dst_port:6 "x"
        in
        let t = Of_action.apply_rewrite (Of_action.Set_l4_src 9999) t in
        match (Packet.Fields.of_packet t).Packet.Fields.l4_src with
        | 9999 -> ()
        | _ -> Alcotest.fail "tcp port not rewritten");
    tc "l4 rewrite on arp is a no-op" (fun () ->
        let arp =
          Packet.arp_request ~src_mac:(mac 1) ~src_ip:(ip "10.0.0.1")
            ~target_ip:(ip "10.0.0.2")
        in
        check Alcotest.bool "unchanged" true
          (Packet.equal arp (Of_action.apply_rewrite (Of_action.Set_l4_src 1) arp)));
    tc "rewritten packets still encode (checksums recomputed)" (fun () ->
        let pkt = Of_action.apply_rewrite (Of_action.Set_ip_dst (ip "8.8.8.8")) (udp_pkt ()) in
        let decoded = Packet.decode (Packet.encode pkt) in
        check Alcotest.bool "valid" true (Packet.equal pkt decoded));
  ]

(* ---- Flow tables ---- *)

let entry ?(priority = 1000) match_ actions =
  Flow_entry.make ~priority ~match_ [ Flow_entry.Apply_actions actions ]

let flow_table_tests =
  [
    tc "priority order wins" (fun () ->
        let t = Flow_table.create () in
        Flow_table.add t ~now_ns:0
          (entry ~priority:10 Of_match.any [ Of_action.output 1 ]);
        Flow_table.add t ~now_ns:0
          (entry ~priority:20 Of_match.(any |> eth_type 0x0800) [ Of_action.output 2 ]);
        let f = Packet.Fields.of_packet (udp_pkt ()) in
        match Flow_table.lookup t ~in_port:0 f with
        | Some e -> check Alcotest.int "prio" 20 e.Flow_entry.priority
        | None -> Alcotest.fail "no match");
    tc "equal priority: first added wins" (fun () ->
        let t = Flow_table.create () in
        Flow_table.add t ~now_ns:0
          (entry Of_match.(any |> eth_type 0x0800) [ Of_action.output 1 ]);
        Flow_table.add t ~now_ns:0
          (entry Of_match.(any |> ip_proto 17) [ Of_action.output 2 ]);
        let f = Packet.Fields.of_packet (udp_pkt ()) in
        match Flow_table.lookup t ~in_port:0 f with
        | Some e ->
            check Alcotest.bool "first" true
              (Flow_entry.actions e = [ Of_action.output 1 ])
        | None -> Alcotest.fail "no match");
    tc "identical match+priority replaces" (fun () ->
        let t = Flow_table.create () in
        Flow_table.add t ~now_ns:0 (entry Of_match.any [ Of_action.output 1 ]);
        Flow_table.add t ~now_ns:0 (entry Of_match.any [ Of_action.output 2 ]);
        check Alcotest.int "one entry" 1 (Flow_table.size t);
        match Flow_table.entries t with
        | [ e ] ->
            check Alcotest.bool "new actions" true
              (Flow_entry.actions e = [ Of_action.output 2 ])
        | _ -> Alcotest.fail "expected one entry");
    tc "strict delete" (fun () ->
        let t = Flow_table.create () in
        Flow_table.add t ~now_ns:0 (entry ~priority:10 Of_match.any [ Of_action.output 1 ]);
        Flow_table.add t ~now_ns:0 (entry ~priority:20 Of_match.any [ Of_action.output 2 ]);
        let removed = Flow_table.delete t ~strict:true Of_match.any ~priority:10 in
        check Alcotest.int "one removed" 1 removed;
        check Alcotest.int "one left" 1 (Flow_table.size t));
    tc "non-strict delete removes subsumed" (fun () ->
        let t = Flow_table.create () in
        Flow_table.add t ~now_ns:0
          (entry Of_match.(any |> eth_type 0x0800 |> ip_dst (prefix "10.0.1.0/24"))
             [ Of_action.output 1 ]);
        Flow_table.add t ~now_ns:0
          (entry Of_match.(any |> eth_type 0x0800 |> ip_dst (prefix "10.0.2.0/24"))
             [ Of_action.output 2 ]);
        Flow_table.add t ~now_ns:0
          (entry Of_match.(any |> eth_type 0x0806) [ Of_action.output 3 ]);
        let removed =
          Flow_table.delete t ~strict:false
            Of_match.(any |> eth_type 0x0800 |> ip_dst (prefix "10.0.0.0/16"))
            ~priority:0
        in
        check Alcotest.int "two removed" 2 removed;
        check Alcotest.int "arp stays" 1 (Flow_table.size t));
    tc "delete filtered by out_port" (fun () ->
        let t = Flow_table.create () in
        Flow_table.add t ~now_ns:0
          (entry Of_match.(any |> eth_type 0x0800) [ Of_action.output 1 ]);
        Flow_table.add t ~now_ns:0
          (entry Of_match.(any |> eth_type 0x0806) [ Of_action.output 2 ]);
        let removed = Flow_table.delete t ~strict:false ~out_port:2 Of_match.any ~priority:0 in
        check Alcotest.int "only the port-2 rule" 1 removed);
    tc "modify preserves counters" (fun () ->
        let t = Flow_table.create () in
        let e = entry Of_match.any [ Of_action.output 1 ] in
        Flow_table.add t ~now_ns:0 e;
        Flow_table.hit t ~now_ns:5 ~bytes:100 e;
        let changed =
          Flow_table.modify t ~strict:true Of_match.any ~priority:1000
            [ Flow_entry.Apply_actions [ Of_action.output 9 ] ]
        in
        check Alcotest.int "changed" 1 changed;
        match Flow_table.entries t with
        | [ e' ] ->
            check Alcotest.int "packets kept" 1 e'.Flow_entry.packets;
            check Alcotest.bool "actions new" true
              (Flow_entry.actions e' = [ Of_action.output 9 ])
        | _ -> Alcotest.fail "expected one");
    tc "idle and hard timeouts" (fun () ->
        let t = Flow_table.create () in
        let second = 1_000_000_000 in
        Flow_table.add t ~now_ns:0
          (Flow_entry.make ~idle_timeout_s:2 ~match_:Of_match.any
             [ Flow_entry.Apply_actions [] ]);
        Flow_table.add t ~now_ns:0
          (Flow_entry.make ~priority:2 ~hard_timeout_s:10 ~match_:Of_match.any
             [ Flow_entry.Apply_actions [] ]);
        (* touch the idle one at t=1s so it survives to 2.9s *)
        (match Flow_table.entries t with
        | entries ->
            List.iter
              (fun e ->
                if e.Flow_entry.idle_timeout_s <> None then
                  Flow_table.hit t ~now_ns:second ~bytes:1 e)
              entries);
        check Alcotest.int "nothing at 2.9s" 0
          (List.length (Flow_table.expire t ~now_ns:(29 * second / 10)));
        check Alcotest.int "idle expires at 3.1s" 1
          (List.length (Flow_table.expire t ~now_ns:(31 * second / 10)));
        check Alcotest.int "hard expires at 11s" 1
          (List.length (Flow_table.expire t ~now_ns:(11 * second))));
    tc "capacity raises Table_full" (fun () ->
        let t = Flow_table.create ~max_entries:2 () in
        Flow_table.add t ~now_ns:0 (entry ~priority:1 Of_match.any []);
        Flow_table.add t ~now_ns:0 (entry ~priority:2 Of_match.any []);
        check Alcotest.bool "full" true
          (try
             Flow_table.add t ~now_ns:0 (entry ~priority:3 Of_match.any []);
             false
           with Flow_table.Table_full -> true));
    tc "version bumps on mutation only" (fun () ->
        let t = Flow_table.create () in
        let v0 = Flow_table.version t in
        Flow_table.add t ~now_ns:0 (entry Of_match.any []);
        let v1 = Flow_table.version t in
        check Alcotest.bool "bumped" true (v1 > v0);
        ignore (Flow_table.lookup t ~in_port:0 (Packet.Fields.of_packet (udp_pkt ())));
        check Alcotest.int "lookup no bump" v1 (Flow_table.version t));
    tc "add stamps sequence numbers and shares the list past its insert point"
      (fun () ->
        let t = Flow_table.create () in
        let low = entry ~priority:1 Of_match.any [] in
        let a = entry Of_match.(any |> eth_type 0x0800) [] in
        let b = entry Of_match.(any |> eth_type 0x0806) [] in
        List.iter (Flow_table.add t ~now_ns:0) [ low; a; b ];
        check Alcotest.(list int) "stamps" [ 1; 2; 0 ]
          (List.map (fun e -> e.Flow_entry.seq) (Flow_table.entries t));
        let tail = List.tl (List.tl (Flow_table.entries t)) in
        (* re-adding [a] itself moves it behind [b] with a fresh stamp *)
        Flow_table.add t ~now_ns:0 a;
        check Alcotest.(list int) "moved" [ 2; 3; 0 ]
          (List.map (fun e -> e.Flow_entry.seq) (Flow_table.entries t));
        check Alcotest.bool "lower priorities shared" true
          (List.tl (List.tl (Flow_table.entries t)) == tail);
        ignore
          (Flow_table.modify t ~strict:true Of_match.(any |> eth_type 0x0800) ~priority:1000
             [ Flow_entry.Apply_actions [ Of_action.output 3 ] ]);
        check Alcotest.(list int) "modify keeps stamps" [ 2; 3; 0 ]
          (List.map (fun e -> e.Flow_entry.seq) (Flow_table.entries t)));
  ]

(* Flow-table edits from small pools, against a model of [add] written
   as its specification: drop what the entry replaces, check capacity,
   insert after every entry of its priority or higher. *)
type ft_op = Ft_add of int * int | Ft_readd of int | Ft_delete of int * int | Ft_clear

let ft_matches =
  [|
    Of_match.any;
    Of_match.(any |> eth_type 0x0800);
    Of_match.(any |> eth_type 0x0806);
    Of_match.(any |> in_port 1);
  |]

let ft_op_gen =
  let open QCheck2.Gen in
  frequency
    [
      (6, map2 (fun m p -> Ft_add (m, p)) (int_bound 3) (int_bound 2));
      (2, map (fun k -> Ft_readd k) (int_bound 9));
      (2, map2 (fun m p -> Ft_delete (m, p)) (int_bound 3) (int_bound 2));
      (1, pure Ft_clear);
    ]

let show_ft_op = function
  | Ft_add (m, p) -> Printf.sprintf "add m%d p%d" m p
  | Ft_readd k -> Printf.sprintf "readd #%d" k
  | Ft_delete (m, p) -> Printf.sprintf "delete m%d p%d" m p
  | Ft_clear -> "clear"

let model_add ~max_entries entries (e : Flow_entry.t) =
  let remaining =
    List.filter
      (fun (x : Flow_entry.t) ->
        not
          (x.Flow_entry.priority = e.Flow_entry.priority
          && Of_match.is_exact_overlap x.Flow_entry.match_ e.Flow_entry.match_))
      entries
  in
  if List.length remaining >= max_entries then None
  else
    let rec insert = function
      | [] -> [ e ]
      | (x : Flow_entry.t) :: rest as all ->
          if x.Flow_entry.priority < e.Flow_entry.priority then e :: all
          else x :: insert rest
    in
    Some (insert remaining)

let rec table_ordered = function
  | (a : Flow_entry.t) :: ((b : Flow_entry.t) :: _ as rest) ->
      (a.Flow_entry.priority > b.Flow_entry.priority
      || (a.Flow_entry.priority = b.Flow_entry.priority
         && a.Flow_entry.seq < b.Flow_entry.seq))
      && table_ordered rest
  | [ _ ] | [] -> true

let flow_table_model_tests =
  [
    prop "add agrees with its model; size and (priority, seq) order hold" ~count:500
      QCheck2.Gen.(list_size (int_range 1 40) ft_op_gen)
      ~print:(fun ops -> String.concat "; " (List.map show_ft_op ops))
      (fun ops ->
        let max_entries = 5 in
        let t = Flow_table.create ~max_entries () in
        let model = ref [] in
        let add e =
          let expected = model_add ~max_entries !model e in
          let full =
            try
              Flow_table.add t ~now_ns:0 e;
              false
            with Flow_table.Table_full -> true
          in
          match expected with
          | None -> full
          | Some entries ->
              model := entries;
              not full
        in
        List.for_all
          (fun op ->
            let ok =
              match op with
              | Ft_add (m, p) -> add (entry ~priority:p ft_matches.(m) [])
              | Ft_readd k -> (
                  match !model with
                  | [] -> true
                  | entries -> add (List.nth entries (k mod List.length entries)))
              | Ft_delete (m, p) ->
                  ignore (Flow_table.delete t ~strict:true ft_matches.(m) ~priority:p);
                  model :=
                    List.filter
                      (fun (x : Flow_entry.t) ->
                        not
                          (x.Flow_entry.priority = p
                          && Of_match.is_exact_overlap x.Flow_entry.match_ ft_matches.(m)))
                      !model;
                  true
              | Ft_clear ->
                  Flow_table.clear t;
                  model := [];
                  true
            in
            let entries = Flow_table.entries t in
            ok
            && List.length entries = List.length !model
            && List.for_all2 ( == ) entries !model
            && Flow_table.size t = List.length entries
            && table_ordered entries)
          ops);
  ]

(* ---- Groups ---- *)

let group_tests =
  [
    tc "select is deterministic per flow hash" (fun () ->
        let g = Group_table.create () in
        Group_table.add g ~id:1 Group_table.Select
          [
            { Group_table.weight = 1; actions = [ Of_action.output 1 ] };
            { Group_table.weight = 1; actions = [ Of_action.output 2 ] };
          ];
        let b1 = Group_table.select_buckets g ~id:1 ~flow_hash:12345 in
        let b2 = Group_table.select_buckets g ~id:1 ~flow_hash:12345 in
        check Alcotest.bool "same" true (b1 = b2);
        check Alcotest.int "single" 1 (List.length b1));
    tc "select respects weights" (fun () ->
        let g = Group_table.create () in
        Group_table.add g ~id:1 Group_table.Select
          [
            { Group_table.weight = 3; actions = [ Of_action.output 1 ] };
            { Group_table.weight = 1; actions = [ Of_action.output 2 ] };
          ];
        let to_1 = ref 0 in
        for h = 0 to 999 do
          match Group_table.select_buckets g ~id:1 ~flow_hash:h with
          | [ b ] -> if b.Group_table.actions = [ Of_action.output 1 ] then incr to_1
          | _ -> ()
        done;
        check Alcotest.bool "~75%" true (!to_1 > 700 && !to_1 < 800));
    tc "all returns every bucket" (fun () ->
        let g = Group_table.create () in
        Group_table.add g ~id:2 Group_table.All
          [
            { Group_table.weight = 0; actions = [ Of_action.output 1 ] };
            { Group_table.weight = 0; actions = [ Of_action.output 2 ] };
          ];
        check Alcotest.int "two" 2
          (List.length (Group_table.select_buckets g ~id:2 ~flow_hash:0)));
    tc "indirect requires one bucket" (fun () ->
        let g = Group_table.create () in
        check Alcotest.bool "rejected" true
          (try
             Group_table.add g ~id:3 Group_table.Indirect [];
             false
           with Invalid_argument _ -> true));
    tc "duplicate id rejected, modify works" (fun () ->
        let g = Group_table.create () in
        Group_table.add g ~id:1 Group_table.All [];
        check Alcotest.bool "dup" true
          (try Group_table.add g ~id:1 Group_table.All []; false
           with Invalid_argument _ -> true);
        Group_table.modify g ~id:1 Group_table.All
          [ { Group_table.weight = 0; actions = [] } ];
        check Alcotest.int "one bucket" 1
          (List.length (Group_table.select_buckets g ~id:1 ~flow_hash:0));
        check Alcotest.bool "modify absent" true
          (try Group_table.modify g ~id:9 Group_table.All []; false
           with Not_found -> true));
  ]

(* ---- Pipeline ---- *)

let pipeline_tests =
  [
    tc "apply actions emit with current packet state" (fun () ->
        let p = Pipeline.create ~num_tables:1 () in
        Flow_table.add (Pipeline.table p 0) ~now_ns:0
          (entry Of_match.any
             [
               Of_action.output 1;
               Of_action.Set_eth_dst (mac 42);
               Of_action.output 2;
             ]);
        let r = Pipeline.execute p ~now_ns:0 ~in_port:0 (udp_pkt ()) in
        match r.Pipeline.outputs with
        | [ Pipeline.Port (1, first); Pipeline.Port (2, second) ] ->
            check Alcotest.bool "first unrewritten" true
              (Mac_addr.equal first.Packet.dst (mac 2));
            check Alcotest.bool "second rewritten" true
              (Mac_addr.equal second.Packet.dst (mac 42))
        | _ -> Alcotest.fail "wrong outputs");
    tc "goto_table chains and write_actions defer" (fun () ->
        let p = Pipeline.create ~num_tables:2 () in
        Flow_table.add (Pipeline.table p 0) ~now_ns:0
          (Flow_entry.make ~match_:Of_match.any
             [
               Flow_entry.Write_actions [ Of_action.output 7 ];
               Flow_entry.Goto_table 1;
             ]);
        Flow_table.add (Pipeline.table p 1) ~now_ns:0
          (Flow_entry.make ~match_:Of_match.any
             [ Flow_entry.Apply_actions [ Of_action.Set_eth_dst (mac 5) ] ]);
        let r = Pipeline.execute p ~now_ns:0 ~in_port:0 (udp_pkt ()) in
        check Alcotest.bool "no miss" false r.Pipeline.table_miss;
        check Alcotest.int "both matched" 2 (List.length r.Pipeline.matched);
        match r.Pipeline.outputs with
        | [ Pipeline.Port (7, pkt) ] ->
            check Alcotest.bool "rewrite applied before deferred output" true
              (Mac_addr.equal pkt.Packet.dst (mac 5))
        | _ -> Alcotest.fail "wrong outputs");
    tc "clear_actions cancels the action set" (fun () ->
        let p = Pipeline.create ~num_tables:2 () in
        Flow_table.add (Pipeline.table p 0) ~now_ns:0
          (Flow_entry.make ~match_:Of_match.any
             [
               Flow_entry.Write_actions [ Of_action.output 7 ];
               Flow_entry.Goto_table 1;
             ]);
        Flow_table.add (Pipeline.table p 1) ~now_ns:0
          (Flow_entry.make ~match_:Of_match.any [ Flow_entry.Clear_actions ]);
        let r = Pipeline.execute p ~now_ns:0 ~in_port:0 (udp_pkt ()) in
        check Alcotest.int "dropped" 0 (List.length r.Pipeline.outputs));
    tc "write_actions with a group as the final action" (fun () ->
        let p = Pipeline.create ~num_tables:1 () in
        Group_table.add (Pipeline.groups p) ~id:4 Group_table.Indirect
          [ { Group_table.weight = 1; actions = [ Of_action.output 6 ] } ];
        Flow_table.add (Pipeline.table p 0) ~now_ns:0
          (Flow_entry.make ~match_:Of_match.any
             [ Flow_entry.Write_actions [ Of_action.Group 4 ] ]);
        let r = Pipeline.execute p ~now_ns:0 ~in_port:0 (udp_pkt ()) in
        (match r.Pipeline.outputs with
        | [ Pipeline.Port (6, _) ] -> ()
        | _ -> Alcotest.fail "group in action set not executed"));
    tc "same-kind rewrites in the action set replace, last wins" (fun () ->
        let p = Pipeline.create ~num_tables:2 () in
        Flow_table.add (Pipeline.table p 0) ~now_ns:0
          (Flow_entry.make ~match_:Of_match.any
             [
               Flow_entry.Write_actions
                 [ Of_action.Set_eth_dst (mac 50); Of_action.output 1 ];
               Flow_entry.Goto_table 1;
             ]);
        Flow_table.add (Pipeline.table p 1) ~now_ns:0
          (Flow_entry.make ~match_:Of_match.any
             [ Flow_entry.Write_actions [ Of_action.Set_eth_dst (mac 60) ] ]);
        let r = Pipeline.execute p ~now_ns:0 ~in_port:0 (udp_pkt ()) in
        (match r.Pipeline.outputs with
        | [ Pipeline.Port (1, pkt) ] ->
            check Alcotest.bool "later write wins" true
              (Mac_addr.equal pkt.Packet.dst (mac 60))
        | _ -> Alcotest.fail "wrong outputs"));
    tc "drop in write_actions clears the pending set" (fun () ->
        let p = Pipeline.create ~num_tables:2 () in
        Flow_table.add (Pipeline.table p 0) ~now_ns:0
          (Flow_entry.make ~match_:Of_match.any
             [
               Flow_entry.Write_actions [ Of_action.output 1 ];
               Flow_entry.Goto_table 1;
             ]);
        Flow_table.add (Pipeline.table p 1) ~now_ns:0
          (Flow_entry.make ~match_:Of_match.any
             [ Flow_entry.Write_actions [ Of_action.Drop ] ]);
        let r = Pipeline.execute p ~now_ns:0 ~in_port:0 (udp_pkt ()) in
        check Alcotest.int "nothing out" 0 (List.length r.Pipeline.outputs));
    tc "miss in later table reported" (fun () ->
        let p = Pipeline.create ~num_tables:2 () in
        Flow_table.add (Pipeline.table p 0) ~now_ns:0
          (Flow_entry.make ~match_:Of_match.any [ Flow_entry.Goto_table 1 ]);
        let r = Pipeline.execute p ~now_ns:0 ~in_port:0 (udp_pkt ()) in
        check Alcotest.bool "miss" true r.Pipeline.table_miss);
    tc "select group picks one bucket, same flow same bucket" (fun () ->
        let p = Pipeline.create ~num_tables:1 () in
        Group_table.add (Pipeline.groups p) ~id:1 Group_table.Select
          [
            { Group_table.weight = 1; actions = [ Of_action.output 1 ] };
            { Group_table.weight = 1; actions = [ Of_action.output 2 ] };
          ];
        Flow_table.add (Pipeline.table p 0) ~now_ns:0
          (entry Of_match.any [ Of_action.Group 1 ]);
        let out pkt =
          match (Pipeline.execute p ~now_ns:0 ~in_port:0 pkt).Pipeline.outputs with
          | [ Pipeline.Port (n, _) ] -> n
          | _ -> -1
        in
        let a = out (udp_pkt ~sport:1111 ()) in
        check Alcotest.int "sticky" a (out (udp_pkt ~sport:1111 ()));
        (* different flows should eventually use both buckets *)
        let seen = List.sort_uniq Int.compare (List.init 64 (fun i -> out (udp_pkt ~sport:(2000 + i) ()))) in
        check Alcotest.bool "both used" true (List.length seen = 2));
    tc "flood and controller outputs" (fun () ->
        let p = Pipeline.create ~num_tables:1 () in
        Flow_table.add (Pipeline.table p 0) ~now_ns:0
          (entry Of_match.any
             [ Of_action.Output Of_action.Flood; Of_action.Output (Of_action.Controller 128) ]);
        let r = Pipeline.execute p ~now_ns:0 ~in_port:0 (udp_pkt ()) in
        match r.Pipeline.outputs with
        | [ Pipeline.Flood _; Pipeline.Controller (128, _) ] -> ()
        | _ -> Alcotest.fail "wrong outputs");
    tc "counters updated on hits" (fun () ->
        let p = Pipeline.create ~num_tables:1 () in
        Flow_table.add (Pipeline.table p 0) ~now_ns:0 (entry Of_match.any []);
        ignore (Pipeline.execute p ~now_ns:0 ~in_port:0 (udp_pkt ()));
        ignore (Pipeline.execute p ~now_ns:0 ~in_port:0 (udp_pkt ()));
        match Flow_table.entries (Pipeline.table p 0) with
        | [ e ] ->
            check Alcotest.int "2 packets" 2 e.Flow_entry.packets;
            check Alcotest.bool "bytes counted" true (e.Flow_entry.bytes > 0)
        | _ -> Alcotest.fail "one entry expected");
    tc "flow_hash ignores non-5-tuple fields" (fun () ->
        let base = udp_pkt () in
        let f1 = Packet.Fields.of_packet base in
        let f2 = Packet.Fields.of_packet { base with Packet.dst = mac 77 } in
        check Alcotest.int "same hash" (Pipeline.flow_hash f1) (Pipeline.flow_hash f2));
    tc "flow_hash unchanged by int fields" (fun () ->
        (* Values from the option-valued fields: a select group keeps
           sending each flow to the bucket it always had. *)
        let hash pkt = Pipeline.flow_hash (Packet.Fields.of_packet pkt) in
        let tcp =
          Packet.tcp ~dst:(mac 2) ~src:(mac 1) ~ip_src:(ip "10.0.0.1")
            ~ip_dst:(ip "10.0.1.9") ~src_port:40000 ~dst_port:80 "x"
        and udp =
          Packet.udp ~vlans:[ Vlan.make ~pcp:5 101 ] ~dst:(mac 2) ~src:(mac 1)
            ~ip_src:(ip "192.168.7.200") ~ip_dst:(ip "10.0.0.2") ~src_port:1000
            ~dst_port:53 "q"
        and icmp =
          Packet.icmp_echo ~dst:(mac 2) ~src:(mac 1) ~ip_src:(ip "10.0.0.1")
            ~ip_dst:(ip "10.0.0.2") ~id:7 ~seq:1
        and arp =
          Packet.arp_request ~src_mac:(mac 1) ~src_ip:(ip "10.0.0.1")
            ~target_ip:(ip "10.0.0.2")
        in
        check Alcotest.(list int) "tcp, udp, icmp, arp"
          [ 415235156; 522655097; 286306633; 174912459 ]
          (List.map hash [ tcp; udp; icmp; arp ]));
  ]

let suite =
  [
    ("openflow.match", match_tests);
    ("openflow.action", action_tests);
    ("openflow.flow_table", flow_table_tests);
    ("openflow.flow_table_model", flow_table_model_tests);
    ("openflow.group", group_tests);
    ("openflow.pipeline", pipeline_tests);
  ]
