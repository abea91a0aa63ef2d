open Simnet
open Openflow
open Softswitch
open Netpkt

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let mac i = Mac_addr.make_local i
let ip = Ipv4_addr.of_string
let prefix = Ipv4_addr.Prefix.of_string

let udp_pkt ?(dst = mac 2) ?(ip_dst = ip "10.0.0.2") ?(sport = 1000) () =
  Packet.udp ~dst ~src:(mac 1) ~ip_src:(ip "10.0.0.1") ~ip_dst ~src_port:sport
    ~dst_port:80 "payload..."

let entry ?(priority = 1000) match_ actions =
  Flow_entry.make ~priority ~match_ [ Flow_entry.Apply_actions actions ]

(* A representative mixed rule set: exact MAC forwarding, IP prefixes, an
   ARP wildcard, a drop fence. *)
let populate pipeline =
  let t = Pipeline.table pipeline 0 in
  for i = 1 to 32 do
    Flow_table.add t ~now_ns:0
      (entry ~priority:2000
         Of_match.(any |> eth_dst (mac (100 + i)))
         [ Of_action.output (i mod 8) ])
  done;
  Flow_table.add t ~now_ns:0
    (entry ~priority:1800
       Of_match.(any |> eth_type 0x0800 |> ip_dst (prefix "10.9.0.0/16"))
       [ Of_action.output 7 ]);
  Flow_table.add t ~now_ns:0
    (entry ~priority:1500 Of_match.(any |> eth_type 0x0806)
       [ Of_action.Output Of_action.Flood ]);
  Flow_table.add t ~now_ns:0
    (entry ~priority:1 Of_match.any [ Of_action.Drop ])

let workload () =
  let rng = Rng.create 21 in
  Array.init 500 (fun i ->
      if i mod 7 = 0 then
        Packet.arp_request ~src_mac:(mac 1) ~src_ip:(ip "10.0.0.1")
          ~target_ip:(ip "10.0.0.2")
      else if i mod 3 = 0 then
        udp_pkt ~ip_dst:(ip (Printf.sprintf "10.9.%d.1" (Rng.int rng 255))) ()
      else udp_pkt ~dst:(mac (100 + Rng.int rng 40)) ~sport:(Rng.int rng 60000) ())

let outputs_of result =
  List.map
    (function
      | Pipeline.Port (n, p) -> ("port" ^ string_of_int n, Packet.encode p)
      | Pipeline.In_port p -> ("in", Packet.encode p)
      | Pipeline.Flood p -> ("flood", Packet.encode p)
      | Pipeline.All_ports p -> ("all", Packet.encode p)
      | Pipeline.Controller (_, p) -> ("ctl", Packet.encode p))
    result.Pipeline.outputs

(* ---- Dataplane equivalence: the heart of the library ---- *)

let equivalence_tests =
  [
    tc "linear, ovs, ovs-noemc and eswitch agree on every packet" (fun () ->
        let mk () =
          let p = Pipeline.create ~num_tables:1 () in
          populate p;
          p
        in
        (* separate pipelines so counters do not interfere *)
        let dps =
          [
            Linear.create (mk ());
            Ovs_like.create (mk ());
            Ovs_like.create
              ~config:{ Ovs_like.default_config with Ovs_like.emc_enabled = false }
              (mk ());
            Eswitch.create (mk ());
          ]
        in
        let packets = workload () in
        Array.iteri
          (fun idx pkt ->
            let results =
              List.map
                (fun (dp : Dataplane.t) ->
                  outputs_of (dp.Dataplane.process ~now_ns:0 ~in_port:(idx mod 4) pkt))
                dps
            in
            match results with
            | reference :: rest ->
                List.iteri
                  (fun j r ->
                    if r <> reference then
                      Alcotest.failf "packet %d: dataplane %d disagrees" idx j)
                  rest
            | [] -> ())
          packets);
    tc "eswitch compiles few templates for many rules" (fun () ->
        let p = Pipeline.create ~num_tables:1 () in
        populate p;
        let dp = Eswitch.create p in
        ignore (dp.Dataplane.process ~now_ns:0 ~in_port:0 (udp_pkt ()));
        let templates = List.assoc "templates" (dp.Dataplane.stats ()) in
        (* 32 exact-mac rules -> 1 template; prefix + wildcard rules are residual *)
        check Alcotest.bool "few" true (templates <= 3));
    tc "eswitch recompiles on table change" (fun () ->
        let p = Pipeline.create ~num_tables:1 () in
        populate p;
        let dp = Eswitch.create p in
        ignore (dp.Dataplane.process ~now_ns:0 ~in_port:0 (udp_pkt ()));
        Flow_table.add (Pipeline.table p 0) ~now_ns:0
          (entry ~priority:3000 Of_match.(any |> eth_dst (mac 200)) [ Of_action.output 1 ]);
        (* The new rule must be visible immediately. *)
        let r = dp.Dataplane.process ~now_ns:0 ~in_port:0 (udp_pkt ~dst:(mac 200) ()) in
        (match r.Pipeline.outputs with
        | [ Pipeline.Port (1, _) ] -> ()
        | _ -> Alcotest.fail "new rule not picked up");
        check Alcotest.bool "recompiled" true
          (List.assoc "recompiles" (dp.Dataplane.stats ()) >= 2));
  ]

(* ---- ESwitch lookup cost ---- *)

(* Minor words one [process] call allocates, averaged over [n] calls
   after a warm-up pass. *)
let words_per_process (dp : Dataplane.t) ~in_port pkt =
  let run () = ignore (dp.Dataplane.process ~now_ns:0 ~in_port pkt) in
  for _ = 1 to 10 do run () done;
  let n = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do run () done;
  (Gc.minor_words () -. before) /. float_of_int n

(* One untagged pass through a one-table ESwitch: the fields view (12),
   the result block (5), its one output and cons cell (6) and its one
   matched entry's cons cell (3). *)
let untagged_pass = 26

(* A whole switch pass adds only the PMD completion thunk (7): a closure
   over the switch, the result, the ingress port and the packet. *)
let whole_pass = untagged_pass + 7

let eswitch_tests =
  let ports = 8 in
  let map = Harmless.Port_map.make ~access_ports:(List.init ports Fun.id) () in
  let vid i = Option.get (Harmless.Port_map.vid_of_logical map i) in
  let ss1 =
    let p = Pipeline.create ~num_tables:1 () in
    List.iter
      (fun fm ->
        ignore (Pipeline.apply p ~now_ns:0 (Of_message.Flow_mod fm)))
      (Harmless.Translator.rules map);
    Eswitch.create p
  in
  (* SS_2's program under Common.proactive_l2: one exact eth_dst rule per
     host plus an ARP flood. *)
  let ss2 =
    let p = Pipeline.create ~num_tables:1 () in
    let t = Pipeline.table p 0 in
    for i = 0 to ports - 1 do
      Flow_table.add t ~now_ns:0
        (entry
           Of_match.(any |> eth_dst (Harmless.Deployment.host_mac i))
           [ Of_action.output i ])
    done;
    Flow_table.add t ~now_ns:0
      (entry ~priority:900 Of_match.(any |> eth_type 0x0806)
         [ Of_action.Output Of_action.Flood ]);
    Eswitch.create p
  in
  let frame ?vlans dst =
    Packet.udp ?vlans ~dst ~src:(Harmless.Deployment.host_mac 0)
      ~ip_src:(Harmless.Deployment.host_ip 0) ~ip_dst:(Harmless.Deployment.host_ip 3)
      ~src_port:1000 ~dst_port:2000 "0123456789"
  in
  let host3 = Harmless.Deployment.host_mac 3 in
  (* Every pass below allocates [untagged_pass] words, plus what its
     rewrites rebuild. *)
  let bounded name dp ~in_port pkt ~port ~bound =
    tc (Printf.sprintf "%s allocates at most %d words per process" name bound)
      (fun () ->
        (match (dp.Dataplane.process ~now_ns:0 ~in_port pkt).Pipeline.outputs with
        | [ Pipeline.Port (p, _) ] when p = port -> ()
        | _ -> Alcotest.failf "%s: expected one output on port %d" name port);
        let words = words_per_process dp ~in_port pkt in
        if words > float_of_int bound then
          Alcotest.failf "%s: %.1f minor words per process (bound %d)" name words
            bound)
  in
  [
    (* pop_vlan rebuilds the packet record (5) *)
    bounded "ss1 trunk->patch" ss1 ~in_port:Harmless.Translator.trunk_port
      (frame ~vlans:[ Vlan.make (vid 3) ] host3)
      ~port:(Harmless.Translator.patch_port_of_logical 3)
      ~bound:(untagged_pass + 5);
    (* push_vlan conses the shared VID-0 tag onto a new record (8), and
       set_vlan_vid builds a tag, its cons and a record (12) *)
    bounded "ss1 patch->trunk" ss1
      ~in_port:(Harmless.Translator.patch_port_of_logical 3) (frame host3)
      ~port:Harmless.Translator.trunk_port ~bound:(untagged_pass + 20);
    bounded "ss2 l2 lookup" ss2 ~in_port:0 (frame host3) ~port:3 ~bound:untagged_pass;
    tc (Printf.sprintf "an untagged udp pass allocates exactly %d words" untagged_pass)
      (fun () ->
        let words = words_per_process ss2 ~in_port:0 (frame host3) in
        if words <> float_of_int untagged_pass then
          Alcotest.failf "%.1f minor words per process (the breakdown says %d)" words
            untagged_pass);
    tc "a whole soft-switch pass allocates its pipeline pass and one thunk"
      (fun () ->
        (* Node.deliver -> dataplane -> PMD admission -> engine event ->
           completion -> Node.transmit, tracing off. *)
        let engine = Engine.create () in
        let sw =
          Soft_switch.create engine ~name:"pinned" ~ports:4
            ~miss:Soft_switch.Drop_on_miss ()
        in
        Soft_switch.handle_message sw
          (Of_message.Flow_mod
             (Of_message.add_flow ~match_:Of_match.(any |> eth_dst host3)
                [ Flow_entry.Apply_actions [ Of_action.output 3 ] ]));
        let sent = ref 0 in
        Node.attach (Soft_switch.node sw) ~port:3 (fun _ -> incr sent);
        let pkt = frame host3 in
        let once () =
          Node.deliver (Soft_switch.node sw) ~port:0 pkt;
          ignore (Engine.step engine)
        in
        for _ = 1 to 10 do once () done;
        let n = 1000 in
        let before = Gc.minor_words () in
        for _ = 1 to n do once () done;
        let words = (Gc.minor_words () -. before) /. float_of_int n in
        check Alcotest.int "every frame forwarded" (n + 10) !sent;
        if words > float_of_int whole_pass then
          Alcotest.failf "%.1f minor words per switch pass (bound %d)" words whole_pass);
    tc "l4_dst-keyed rules agree with linear on every port" (fun () ->
        let mk () =
          let p = Pipeline.create ~num_tables:1 () in
          for i = 0 to 999 do
            Flow_table.add (Pipeline.table p 0) ~now_ns:0
              (entry
                 Of_match.(any |> eth_type 0x0800 |> ip_proto 17 |> l4_dst (1000 + i))
                 [ Of_action.output (i mod 8) ])
          done;
          p
        in
        let linear = Linear.create (mk ()) and eswitch = Eswitch.create (mk ()) in
        for port = 0 to 2999 do
          let pkt =
            Packet.udp ~dst:(mac 2) ~src:(mac 1) ~ip_src:(ip "10.0.0.1")
              ~ip_dst:(ip "10.0.0.2") ~src_port:5000 ~dst_port:port ""
          in
          let out (dp : Dataplane.t) =
            outputs_of (dp.Dataplane.process ~now_ns:0 ~in_port:0 pkt)
          in
          if out linear <> out eswitch then
            Alcotest.failf "l4_dst %d: eswitch disagrees with linear" port
        done);
  ]

(* ---- Caches ---- *)

(* SS_2's shape at its smallest: one exact eth_dst rule. *)
let one_rule_pipeline () =
  let p = Pipeline.create ~num_tables:1 () in
  Flow_table.add (Pipeline.table p 0) ~now_ns:0
    (entry Of_match.(any |> eth_dst (mac 2)) [ Of_action.output 3 ]);
  p

(* Two tables: /24 ip_dst rules, a quarter of which go on to an L4 table
   with a catch-all, and an ARP flood.  Destinations 10.1.32-39.x match
   nothing, so they are upcalled every time. *)
let churn_pipeline () =
  let p = Pipeline.create ~num_tables:2 () in
  let t0 = Pipeline.table p 0 and t1 = Pipeline.table p 1 in
  for k = 0 to 31 do
    Flow_table.add t0 ~now_ns:0
      (Flow_entry.make ~priority:2000
         ~match_:
           Of_match.(
             any |> eth_type 0x0800
             |> ip_dst (Ipv4_addr.Prefix.make (Ipv4_addr.of_octets 10 1 k 0) 24))
         (if k mod 4 = 0 then [ Flow_entry.Goto_table 1 ]
          else [ Flow_entry.Apply_actions [ Of_action.output (k mod 8) ] ]))
  done;
  Flow_table.add t0 ~now_ns:0
    (entry ~priority:1500 Of_match.(any |> eth_type 0x0806)
       [ Of_action.Output Of_action.Flood ]);
  Flow_table.add t1 ~now_ns:0
    (entry Of_match.(any |> eth_type 0x0800 |> ip_proto 6 |> l4_dst 80)
       [ Of_action.output 1 ]);
  Flow_table.add t1 ~now_ns:0
    (entry Of_match.(any |> eth_type 0x0800 |> ip_proto 17 |> l4_dst 53)
       [ Of_action.output 2 ]);
  Flow_table.add t1 ~now_ns:0
    (Flow_entry.make ~priority:1 ~match_:Of_match.any
       [ Flow_entry.Write_actions [ Of_action.output 3 ] ]);
  p

(* Halfway through the churn: a /25 inside one of the /24s, so the
   megaflow mask lengthens. *)
let churn_flow_mod =
  Of_message.Flow_mod
    (Of_message.add_flow ~priority:3000
       ~match_:Of_match.(any |> eth_type 0x0800 |> ip_dst (prefix "10.1.4.0/25"))
       [ Flow_entry.Apply_actions [ Of_action.output 7 ] ])

(* 20k packets over 12k microflows (more than the default EMC's 8192
   slots), half of them drawn from a hot set of 200, and after every
   fifth packet a twin that differs only in the low byte of ip_dst. *)
let churn_packets () =
  let rng = Rng.create 34 in
  let packet id ~low =
    let in_port = id mod 4 in
    if id mod 50 = 0 then
      (in_port, Packet.arp_request ~src_mac:(mac 1) ~src_ip:(ip "10.0.0.1")
         ~target_ip:(Ipv4_addr.of_octets 10 1 (id mod 40) low))
    else
      let src = mac (1 + (id mod 64))
      and ip_src = Ipv4_addr.of_octets 10 0 (id / 256 mod 256) (id mod 256)
      and ip_dst = Ipv4_addr.of_octets 10 1 (id mod 40) low
      and src_port = 1024 + (id mod 20_000)
      and dst_port = [| 80; 53; 8080 |].(id mod 3) in
      ( in_port,
        if id mod 2 = 0 then
          Packet.tcp ~dst:(mac 2) ~src ~ip_src ~ip_dst ~src_port ~dst_port "x"
        else Packet.udp ~dst:(mac 2) ~src ~ip_src ~ip_dst ~src_port ~dst_port "x" )
  in
  let out = ref [] in
  for i = 0 to 16_666 do
    let id = if Rng.bool rng then Rng.int rng 200 else Rng.int rng 12_000 in
    let low = id * 37 mod 256 in
    out := packet id ~low :: !out;
    if i mod 5 = 4 then out := packet id ~low:(low lxor (1 + Rng.int rng 255)) :: !out
  done;
  Array.of_list (List.rev !out)

let cache_tests =
  [
    tc "emc hits on repeated microflows" (fun () ->
        let p = Pipeline.create ~num_tables:1 () in
        populate p;
        let dp = Ovs_like.create p in
        let pkt = udp_pkt ~dst:(mac 101) () in
        for _ = 1 to 10 do
          ignore (dp.Dataplane.process ~now_ns:0 ~in_port:0 pkt)
        done;
        let stats = dp.Dataplane.stats () in
        check Alcotest.int "one upcall" 1 (List.assoc "upcalls" stats);
        check Alcotest.int "nine emc hits" 9 (List.assoc "emc_hits" stats));
    tc "megaflow absorbs varying untested fields" (fun () ->
        let p = Pipeline.create ~num_tables:1 () in
        (* single rule keyed on ip_dst only; src ports untested *)
        Flow_table.add (Pipeline.table p 0) ~now_ns:0
          (entry Of_match.(any |> eth_type 0x0800 |> ip_dst (prefix "10.0.0.2/32"))
             [ Of_action.output 1 ]);
        let dp =
          Ovs_like.create
            ~config:{ Ovs_like.default_config with Ovs_like.emc_enabled = false }
            p
        in
        for sport = 1 to 50 do
          ignore (dp.Dataplane.process ~now_ns:0 ~in_port:0 (udp_pkt ~sport ()))
        done;
        let stats = dp.Dataplane.stats () in
        check Alcotest.int "one upcall" 1 (List.assoc "upcalls" stats);
        check Alcotest.int "49 megaflow hits" 49 (List.assoc "megaflow_hits" stats));
    tc "cache invalidated by flow-mod" (fun () ->
        let p = Pipeline.create ~num_tables:1 () in
        Flow_table.add (Pipeline.table p 0) ~now_ns:0
          (entry Of_match.any [ Of_action.output 1 ]);
        let dp = Ovs_like.create p in
        let pkt = udp_pkt () in
        ignore (dp.Dataplane.process ~now_ns:0 ~in_port:0 pkt);
        ignore (dp.Dataplane.process ~now_ns:0 ~in_port:0 pkt);
        (* change the rule: cached result must not survive *)
        ignore
          (Flow_table.modify (Pipeline.table p 0) ~strict:true Of_match.any
             ~priority:1000
             [ Flow_entry.Apply_actions [ Of_action.output 9 ] ]);
        let r = dp.Dataplane.process ~now_ns:0 ~in_port:0 pkt in
        (match r.Pipeline.outputs with
        | [ Pipeline.Port (9, _) ] -> ()
        | _ -> Alcotest.fail "stale cache served");
        check Alcotest.bool "invalidation counted" true
          (List.assoc "invalidations" (dp.Dataplane.stats ()) >= 1));
    tc "table miss is never cached" (fun () ->
        let p = Pipeline.create ~num_tables:1 () in
        let dp = Ovs_like.create p in
        let pkt = udp_pkt () in
        ignore (dp.Dataplane.process ~now_ns:0 ~in_port:0 pkt);
        ignore (dp.Dataplane.process ~now_ns:0 ~in_port:0 pkt);
        let stats = dp.Dataplane.stats () in
        check Alcotest.int "both upcalled" 2 (List.assoc "upcalls" stats));
    tc "capacities below one are rejected" (fun () ->
        let p = Pipeline.create ~num_tables:1 () in
        let rejects config =
          match Ovs_like.create ~config p with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        let d = Ovs_like.default_config in
        check Alcotest.bool "megaflow 0" true
          (rejects { d with Ovs_like.megaflow_capacity = 0 });
        check Alcotest.bool "emc 0" true (rejects { d with Ovs_like.emc_capacity = 0 });
        check Alcotest.bool "emc -1" true (rejects { d with Ovs_like.emc_capacity = -1 });
        check Alcotest.bool "emc 0 but disabled" false
          (rejects { d with Ovs_like.emc_enabled = false; emc_capacity = 0 }));
    tc (Printf.sprintf "an emc hit allocates exactly %d words" untagged_pass)
      (fun () ->
        let dp = Ovs_like.create (one_rule_pipeline ()) in
        let words = words_per_process dp ~in_port:0 (udp_pkt ()) in
        check Alcotest.int "all but the first of 1010 passes are emc hits" 1009
          (List.assoc "emc_hits" (dp.Dataplane.stats ()));
        if words <> float_of_int untagged_pass then
          Alcotest.failf "%.1f minor words per emc hit (an eswitch pass is %d)" words
            untagged_pass);
    tc
      (Printf.sprintf "a megaflow hit that evicts an emc slot allocates exactly %d words"
         untagged_pass) (fun () ->
        (* One EMC slot and two microflows that share a megaflow: each
           packet misses the EMC, hits the megaflow and evicts the other. *)
        let dp =
          Ovs_like.create
            ~config:{ Ovs_like.default_config with Ovs_like.emc_capacity = 1 }
            (one_rule_pipeline ())
        in
        let a = udp_pkt ~sport:1 () and b = udp_pkt ~sport:2 () in
        let pair () =
          ignore (dp.Dataplane.process ~now_ns:0 ~in_port:0 a);
          ignore (dp.Dataplane.process ~now_ns:0 ~in_port:0 b)
        in
        for _ = 1 to 10 do pair () done;
        let n = 500 in
        let before = Gc.minor_words () in
        for _ = 1 to n do pair () done;
        let words = (Gc.minor_words () -. before) /. float_of_int (2 * n) in
        let stat k = List.assoc k (dp.Dataplane.stats ()) in
        check Alcotest.(pair int int) "(emc hits, upcalls)" (0, 1)
          (stat "emc_hits", stat "upcalls");
        if words <> float_of_int untagged_pass then
          Alcotest.failf "%.1f minor words per megaflow hit (an eswitch pass is %d)"
            words untagged_pass);
    tc "a linear pass allocates exactly 28 words" (fun () ->
        (* an eswitch pass plus the [Some] of the hit *)
        let dp = Linear.create (one_rule_pipeline ()) in
        let words = words_per_process dp ~in_port:0 (udp_pkt ()) in
        if words <> float_of_int (untagged_pass + 2) then
          Alcotest.failf "%.1f minor words per linear pass (want %d)" words
            (untagged_pass + 2));
    tc "a hardware pass allocates exactly 28 words" (fun () ->
        (* The hardware dataplane runs [Pipeline.execute]: an eswitch pass
           plus the [Some] of the hit, with the lookup built once per
           pipeline rather than per call. *)
        let p = one_rule_pipeline () in
        let dp =
          {
            Dataplane.name = "hardware";
            process =
              (fun ~now_ns ~in_port pkt -> Pipeline.execute p ~now_ns ~in_port pkt);
            stats = (fun () -> []);
            tier = (fun () -> "tcam");
          }
        in
        let words = words_per_process dp ~in_port:0 (udp_pkt ()) in
        if words <> float_of_int (untagged_pass + 2) then
          Alcotest.failf "%.1f minor words per hardware pass (want %d)" words
            (untagged_pass + 2));
    tc "new microflows allocate an eswitch pass each against 1000 rules" (fun () ->
        let dp = Ovs_like.create (Experiments_lib.E5_dataplane.build_pipeline 1000) in
        (* distinct source ports make every packet a new microflow; the
           1000 destinations hit every /32 rule *)
        let pkt i =
          let rule = i mod 1000 in
          Packet.udp ~dst:(mac 999) ~src:(mac 1)
            ~ip_src:(Ipv4_addr.of_octets 10 0 (i / 50000) 1)
            ~ip_dst:(Ipv4_addr.of_octets 10 1 (rule / 256) (rule mod 256))
            ~src_port:(1024 + (i mod 50000)) ~dst_port:80 "0123456789"
        in
        for i = 0 to 19_999 do
          ignore (dp.Dataplane.process ~now_ns:0 ~in_port:0 (pkt i))
        done;
        let fresh = Array.init 1000 (fun i -> pkt (20_000 + i)) in
        let before = Gc.minor_words () in
        for i = 0 to 999 do
          ignore (dp.Dataplane.process ~now_ns:0 ~in_port:0 fresh.(i))
        done;
        let words = int_of_float (Gc.minor_words () -. before) in
        (* Every one is a megaflow hit at an eswitch pass's words.  The
           only extra is storage for the 27 EMC slots these fill for the
           first time: 13 key ints, the cached chain and a header. *)
        check Alcotest.int "minor words for 1000 new microflows"
          ((1000 * untagged_pass) + (27 * 15))
          words;
        check Alcotest.int "no emc hits on new microflows" 0
          (List.assoc "emc_hits" (dp.Dataplane.stats ())));
    tc "microflows differing only in l4_src hit the emc on repeat" (fun () ->
        let p = Pipeline.create ~num_tables:1 () in
        populate p;
        let dp = Ovs_like.create p in
        let pass () =
          for sport = 1 to 512 do
            ignore (dp.Dataplane.process ~now_ns:0 ~in_port:0 (udp_pkt ~sport ()))
          done
        in
        pass ();
        let first = List.assoc "emc_hits" (dp.Dataplane.stats ()) in
        pass ();
        let hits = List.assoc "emc_hits" (dp.Dataplane.stats ()) - first in
        if hits * 100 < 95 * 512 then
          Alcotest.failf "%d of 512 repeats hit the emc (want >= 95%%)" hits);
    tc "tiny caches agree with linear and account for every packet" (fun () ->
        let mk () =
          let p = Pipeline.create ~num_tables:1 () in
          populate p;
          p
        in
        let reference = Linear.create (mk ()) in
        let tiny = Option.get (Backends.find "ovs-tiny-cache") (mk ()) in
        let rng = Rng.create 2000 in
        (* a hot set small enough to revisit the caches, plus cold flows
           that force evictions and flushes *)
        for idx = 0 to 1999 do
          let pkt =
            if Rng.int rng 4 = 0 then
              udp_pkt ~dst:(mac (100 + Rng.int rng 40)) ~sport:(Rng.int rng 60000) ()
            else if Rng.int rng 3 = 0 then
              udp_pkt ~ip_dst:(ip (Printf.sprintf "10.9.%d.1" (Rng.int rng 8))) ()
            else udp_pkt ~dst:(mac (100 + Rng.int rng 6)) ~sport:(Rng.int rng 3) ()
          in
          let in_port = Rng.int rng 3 in
          let out (dp : Dataplane.t) =
            outputs_of (dp.Dataplane.process ~now_ns:0 ~in_port pkt)
          in
          if out reference <> out tiny then
            Alcotest.failf "packet %d: tiny cache disagrees" idx
        done;
        let stats = tiny.Dataplane.stats () in
        let stat k = List.assoc k stats in
        check Alcotest.int "every packet is an emc hit, a megaflow hit or an upcall"
          (stat "packets")
          (stat "emc_hits" + stat "megaflow_hits" + stat "upcalls");
        List.iter
          (fun k -> check Alcotest.bool (k ^ " exercised") true (stat k > 0))
          [ "emc_hits"; "megaflow_hits"; "upcalls" ]);
    tc "a seeded churn keeps the cache model's outputs and counts" (fun () ->
        (* The counts are the ones the cache model gave while its keys
           were boxed records: changing how a tier stores or probes its
           keys must not move them. *)
        let packets = churn_packets () in
        List.iter
          (fun (backend, counts) ->
            let ref_pipe = churn_pipeline () and pipe = churn_pipeline () in
            let reference = Linear.create ref_pipe in
            let dp = Option.get (Backends.find backend) pipe in
            Array.iteri
              (fun idx (in_port, pkt) ->
                if idx = Array.length packets / 2 then begin
                  ignore (Pipeline.apply ref_pipe ~now_ns:0 churn_flow_mod);
                  ignore (Pipeline.apply pipe ~now_ns:0 churn_flow_mod)
                end;
                let out (dp : Dataplane.t) =
                  outputs_of (dp.Dataplane.process ~now_ns:0 ~in_port pkt)
                in
                if out reference <> out dp then
                  Alcotest.failf "%s, packet %d: disagrees with linear" backend idx)
              packets;
            let stats = dp.Dataplane.stats () in
            check
              Alcotest.(list (pair string int))
              (backend ^ " counts")
              counts
              (List.map
                 (fun k -> (k, List.assoc k stats))
                 [ "emc_hits"; "megaflow_hits"; "upcalls"; "invalidations" ]))
          [
            ( "ovs",
              [
                ("emc_hits", 7691);
                ("megaflow_hits", 8078);
                ("upcalls", 4231);
                ("invalidations", 1);
              ] );
            ( "ovs-tiny-cache",
              [
                ("emc_hits", 148);
                ("megaflow_hits", 2452);
                ("upcalls", 17400);
                ("invalidations", 1);
              ] );
          ]);
  ]

(* ---- PMD ---- *)

(* What a switch does with an admitted packet: schedule its completion
   at the returned instant, and call [Pmd.complete] there first. *)
let pmd_submit engine pmd ~cycles k =
  let finish = Pmd.admit pmd ~cycles in
  if finish >= 0 then
    Engine.schedule_at engine (Sim_time.of_ns finish) (fun () ->
        Pmd.complete pmd;
        k ());
  finish >= 0

let pmd_tests =
  [
    tc "service time matches the cycle model" (fun () ->
        let engine = Engine.create () in
        let cfg = { Pmd.default_config with Pmd.ghz = 1.0 } in
        let pmd = Pmd.create engine ~config:cfg () in
        let done_at = ref (-1) in
        ignore
          (pmd_submit engine pmd ~cycles:1000 (fun () ->
               done_at := Sim_time.to_ns (Engine.now engine)));
        Engine.run engine;
        let expected =
          Pmd.ns_of_cycles cfg (Pmd.packet_service_cycles cfg ~dataplane_cycles:1000)
        in
        check Alcotest.int "completion" expected !done_at);
    tc "back-to-back packets queue" (fun () ->
        let engine = Engine.create () in
        let cfg = { Pmd.default_config with Pmd.ghz = 1.0 } in
        let pmd = Pmd.create engine ~config:cfg () in
        let completions = ref [] in
        for _ = 1 to 3 do
          ignore
            (pmd_submit engine pmd ~cycles:1000 (fun () ->
                 completions := Sim_time.to_ns (Engine.now engine) :: !completions))
        done;
        Engine.run engine;
        let service =
          Pmd.ns_of_cycles cfg (Pmd.packet_service_cycles cfg ~dataplane_cycles:1000)
        in
        check Alcotest.(list int) "spaced"
          [ service; 2 * service; 3 * service ]
          (List.rev !completions));
    tc "rx ring overflows drop" (fun () ->
        let engine = Engine.create () in
        let cfg = { Pmd.default_config with Pmd.rx_ring = 4 } in
        let pmd = Pmd.create engine ~config:cfg () in
        let accepted = ref 0 in
        for _ = 1 to 10 do
          if pmd_submit engine pmd ~cycles:100 (fun () -> ()) then incr accepted
        done;
        check Alcotest.int "4 accepted" 4 !accepted;
        Engine.run engine;
        check Alcotest.int "processed" 4 (Pmd.processed pmd);
        (* a switch counts each refused frame once, on its node's ledger *)
        let sw = Soft_switch.create engine ~name:"s" ~ports:2 ~pmd:cfg () in
        for _ = 1 to 10 do
          Node.deliver (Soft_switch.node sw) ~port:0 (udp_pkt ())
        done;
        check Alcotest.(pair int int) "6 dropped, one counter" (6, 6)
          ( Node.drops (Soft_switch.node sw) Node.Drop_rx_ring,
            List.assoc "pmd_dropped" (Soft_switch.stats sw) ));
    tc "larger batches amortize overhead" (fun () ->
        let small = { Pmd.default_config with Pmd.batch_size = 1 } in
        let big = { Pmd.default_config with Pmd.batch_size = 64 } in
        check Alcotest.bool "cheaper" true
          (Pmd.packet_service_cycles big ~dataplane_cycles:100
           < Pmd.packet_service_cycles small ~dataplane_cycles:100));
    tc "more cores serve faster" (fun () ->
        let one = { Pmd.default_config with Pmd.cores = 1 } in
        let four = { Pmd.default_config with Pmd.cores = 4 } in
        check Alcotest.bool "faster" true
          (Pmd.ns_of_cycles four 10_000 < Pmd.ns_of_cycles one 10_000));
  ]

(* ---- Patch ports and the switch agent ---- *)

let agent_tests =
  [
    tc "patch port delivers same-instant" (fun () ->
        let engine = Engine.create () in
        let a = Node.create engine ~name:"a" ~ports:1 in
        let b = Node.create engine ~name:"b" ~ports:1 in
        Patch_port.connect (a, 0) (b, 0);
        let got = ref 0 in
        Node.set_handler b (fun _ ~in_port:_ _ -> incr got);
        Node.transmit a ~port:0 (udp_pkt ());
        Engine.run engine;
        check Alcotest.int "delivered" 1 !got;
        check Alcotest.int "counted" 1 (Node.rx_packets b ~port:0);
        check Alcotest.int "no clock advance" 0 (Sim_time.to_ns (Engine.now engine)));
    tc "flow_mod add/delete via agent" (fun () ->
        let engine = Engine.create () in
        let sw = Soft_switch.create engine ~name:"s" ~ports:2 () in
        Soft_switch.handle_message sw
          (Of_message.Flow_mod
             (Of_message.add_flow ~match_:Of_match.any
                [ Flow_entry.Apply_actions [ Of_action.output 1 ] ]));
        check Alcotest.int "installed" 1
          (Flow_table.size (Pipeline.table (Soft_switch.pipeline sw) 0));
        Soft_switch.handle_message sw
          (Of_message.Flow_mod (Of_message.delete_flow Of_match.any));
        check Alcotest.int "deleted" 0
          (Flow_table.size (Pipeline.table (Soft_switch.pipeline sw) 0)));
    tc "bad table id and table-full surface as errors" (fun () ->
        let engine = Engine.create () in
        let sw =
          Soft_switch.create engine ~name:"s" ~ports:2 ~max_flow_entries:1 ()
        in
        let errors = ref [] in
        Soft_switch.set_controller sw (function
          | Of_message.Error e -> errors := e :: !errors
          | _ -> ());
        Soft_switch.handle_message sw
          (Of_message.Flow_mod (Of_message.add_flow ~table_id:99 ~match_:Of_match.any []));
        Soft_switch.handle_message sw
          (Of_message.Flow_mod
             (Of_message.add_flow ~priority:1 ~match_:Of_match.any []));
        Soft_switch.handle_message sw
          (Of_message.Flow_mod
             (Of_message.add_flow ~priority:2 ~match_:Of_match.any []));
        check Alcotest.int "two errors" 2 (List.length !errors));
    tc "table miss sends packet-in; drop mode stays silent" (fun () ->
        let engine = Engine.create () in
        let sw = Soft_switch.create engine ~name:"s" ~ports:2 () in
        let stub = Node.create engine ~name:"stub" ~ports:1 in
        ignore (Link.connect (stub, 0) (Soft_switch.node sw, 0));
        let pkt_ins = ref 0 in
        Soft_switch.set_controller sw (function
          | Of_message.Packet_in _ -> incr pkt_ins
          | _ -> ());
        Node.transmit stub ~port:0 (udp_pkt ());
        Engine.run engine;
        check Alcotest.int "packet-in" 1 !pkt_ins;
        (* drop mode *)
        let sw2 =
          Soft_switch.create engine ~name:"s2" ~ports:2 ~miss:Soft_switch.Drop_on_miss ()
        in
        let stub2 = Node.create engine ~name:"stub2" ~ports:1 in
        ignore (Link.connect (stub2, 0) (Soft_switch.node sw2, 0));
        let pkt_ins2 = ref 0 in
        Soft_switch.set_controller sw2 (function
          | Of_message.Packet_in _ -> incr pkt_ins2
          | _ -> ());
        Node.transmit stub2 ~port:0 (udp_pkt ());
        Engine.run engine;
        check Alcotest.int "silent" 0 !pkt_ins2;
        check Alcotest.int "counted" 1
          (Node.drops (Soft_switch.node sw2) Node.Drop_table_miss);
        let r = Telemetry.Registry.create () in
        Soft_switch.publish_metrics ~registry:r sw2;
        check Alcotest.(float 0.) "exported" 1.
          (Telemetry.Registry.Gauge.value
             (Telemetry.Registry.Gauge.v ~registry:r
                ~labels:[ ("switch", "s2"); ("dataplane", Soft_switch.dataplane_name sw2) ]
                "softswitch_drop_table_miss")));
    tc "packet_out executes actions" (fun () ->
        let engine = Engine.create () in
        let sw = Soft_switch.create engine ~name:"s" ~ports:2 () in
        let stub = Node.create engine ~name:"stub" ~ports:1 in
        ignore (Link.connect (stub, 0) (Soft_switch.node sw, 1));
        let got = ref [] in
        Node.set_handler stub (fun _ ~in_port:_ pkt -> got := pkt :: !got);
        Soft_switch.handle_message sw
          (Of_message.Packet_out
             {
               in_port = None;
               actions = [ Of_action.Set_eth_dst (mac 7); Of_action.output 1 ];
               packet = udp_pkt ();
             });
        Engine.run engine;
        match !got with
        | [ pkt ] -> check Alcotest.bool "rewritten" true (Mac_addr.equal pkt.Packet.dst (mac 7))
        | _ -> Alcotest.fail "expected one packet");
    tc "packet_out runs a group action" (fun () ->
        let engine = Engine.create () in
        let sw = Soft_switch.create engine ~name:"s" ~ports:3 () in
        let got = Array.make 3 0 in
        for p = 1 to 2 do
          let stub = Node.create engine ~name:(Printf.sprintf "stub%d" p) ~ports:1 in
          ignore (Link.connect (stub, 0) (Soft_switch.node sw, p));
          Node.set_handler stub (fun _ ~in_port:_ _ -> got.(p) <- got.(p) + 1)
        done;
        Soft_switch.handle_message sw
          (Of_message.Group_mod
             (Of_message.Add_group
                {
                  id = 1;
                  gtype = Group_table.All;
                  buckets =
                    [
                      { Group_table.weight = 1; actions = [ Of_action.output 1 ] };
                      { Group_table.weight = 1; actions = [ Of_action.output 2 ] };
                    ];
                }));
        Soft_switch.handle_message sw
          (Of_message.Packet_out
             { in_port = None; actions = [ Of_action.Group 1 ]; packet = udp_pkt () });
        Engine.run engine;
        check Alcotest.(list int) "one copy per bucket" [ 0; 1; 1 ] (Array.to_list got));
    tc "bad controller input gets an error reply; the switch still forwards"
      (fun () ->
        let engine = Engine.create () in
        let sw = Soft_switch.create engine ~name:"s" ~ports:2 () in
        let stub = Node.create engine ~name:"stub" ~ports:1 in
        ignore (Link.connect (stub, 0) (Soft_switch.node sw, 0));
        let got = ref 0 in
        Node.set_handler stub (fun _ ~in_port:_ _ -> incr got);
        let errors = ref [] in
        Soft_switch.set_controller sw (function
          | Of_message.Error e -> errors := e :: !errors
          | _ -> ());
        let bucket = { Group_table.weight = 1; actions = [ Of_action.output 1 ] } in
        let band = { Meter_table.rate_kbps = 100; burst_kb = 10 } in
        List.iter (Soft_switch.handle_message sw)
          [
            Of_message.Group_mod
              (Of_message.Add_group { id = 1; gtype = Group_table.Indirect; buckets = [ bucket ] });
            Of_message.Meter_mod (Of_message.Add_meter { id = 1; band });
            Of_message.Flow_mod
              (Of_message.add_flow ~match_:Of_match.any
                 [ Flow_entry.Apply_actions [ Of_action.Output Of_action.In_port ] ]);
          ];
        check Alcotest.(list string) "valid input: no error" [] !errors;
        let send msg =
          let before = List.length !errors in
          (match Soft_switch.handle_message sw msg with
          | () -> ()
          | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e));
          check Alcotest.int "one error reply" (before + 1) (List.length !errors)
        in
        send
          (Of_message.Group_mod
             (Of_message.Modify_group
                { id = 1; gtype = Group_table.Indirect; buckets = [ bucket; bucket ] }));
        send
          (Of_message.Meter_mod
             (Of_message.Modify_meter { id = 1; band = { band with rate_kbps = 0 } }));
        send (Of_message.Flow_stats_request { table_id = Some 99 });
        send (Of_message.Flow_stats_request { table_id = Some (-1) });
        List.iter
          (fun in_port ->
            send
              (Of_message.Packet_out
                 {
                   in_port;
                   actions = [ Of_action.Output Of_action.In_port ];
                   packet = udp_pkt ();
                 }))
          [ None; Some 2 ];
        check Alcotest.(list string) "reasons"
          [
            "packet-out: bad in_port";
            "packet-out: bad in_port";
            "flow-stats: bad table id";
            "flow-stats: bad table id";
            "Meter_table: rate and burst must be positive";
            "Group_table: indirect group needs exactly one bucket";
          ]
          !errors;
        Node.transmit stub ~port:0 (udp_pkt ());
        Engine.run engine;
        check Alcotest.int "still forwards" 1 !got);
    tc "features and stats replies" (fun () ->
        let engine = Engine.create () in
        let sw = Soft_switch.create engine ~name:"s" ~ports:3 () in
        let replies = ref [] in
        Soft_switch.set_controller sw (fun m -> replies := m :: !replies);
        Soft_switch.handle_message sw Of_message.Features_request;
        Soft_switch.handle_message sw
          (Of_message.Flow_mod (Of_message.add_flow ~match_:Of_match.any []));
        Soft_switch.handle_message sw (Of_message.Flow_stats_request { table_id = None });
        Soft_switch.handle_message sw Of_message.Port_stats_request;
        Soft_switch.handle_message sw (Of_message.Barrier_request 5);
        Soft_switch.handle_message sw (Of_message.Echo_request "x");
        let has pred = List.exists pred !replies in
        check Alcotest.bool "features" true
          (has (function Of_message.Features_reply { num_ports = 3; _ } -> true | _ -> false));
        check Alcotest.bool "flow stats" true
          (has (function Of_message.Flow_stats_reply [ _ ] -> true | _ -> false));
        check Alcotest.bool "port stats" true
          (has (function Of_message.Port_stats_reply l -> List.length l = 3 | _ -> false));
        check Alcotest.bool "barrier" true
          (has (function Of_message.Barrier_reply 5 -> true | _ -> false));
        check Alcotest.bool "echo" true
          (has (function Of_message.Echo_reply "x" -> true | _ -> false)));
    tc "hairpin requires In_port output" (fun () ->
        let engine = Engine.create () in
        let sw = Soft_switch.create engine ~name:"s" ~ports:2 () in
        let stub = Node.create engine ~name:"stub" ~ports:1 in
        ignore (Link.connect (stub, 0) (Soft_switch.node sw, 0));
        let got = ref 0 in
        Node.set_handler stub (fun _ ~in_port:_ _ -> incr got);
        (* Output to the ingress port via Physical is suppressed... *)
        Soft_switch.handle_message sw
          (Of_message.Flow_mod
             (Of_message.add_flow ~match_:Of_match.any
                [ Flow_entry.Apply_actions [ Of_action.output 0 ] ]));
        Node.transmit stub ~port:0 (udp_pkt ());
        Engine.run engine;
        check Alcotest.int "suppressed" 0 !got;
        (* ...but In_port hairpins. *)
        Soft_switch.handle_message sw
          (Of_message.Flow_mod
             (Of_message.add_flow ~priority:2000 ~match_:Of_match.any
                [ Flow_entry.Apply_actions [ Of_action.Output Of_action.In_port ] ]));
        Node.transmit stub ~port:0 (udp_pkt ());
        Engine.run engine;
        check Alcotest.int "hairpinned" 1 !got);
    tc "flow expiry runs via expire_flows" (fun () ->
        let engine = Engine.create () in
        let sw = Soft_switch.create engine ~name:"s" ~ports:1 () in
        Soft_switch.handle_message sw
          (Of_message.Flow_mod
             (Of_message.add_flow ~hard_timeout_s:1 ~match_:Of_match.any []));
        check Alcotest.int "present" 1
          (Flow_table.size (Pipeline.table (Soft_switch.pipeline sw) 0));
        Engine.schedule_after engine (Sim_time.s 2) (fun () -> ());
        Engine.run engine;
        Soft_switch.expire_flows sw;
        check Alcotest.int "expired" 0
          (Flow_table.size (Pipeline.table (Soft_switch.pipeline sw) 0)));
  ]



(* ---- equivalence over fully random tables (reuses the codec's
   match/instruction generators) ---- *)

let random_table_gen =
  let open QCheck2.Gen in
  pair
    (list_size (int_range 1 25)
       (triple Test_codec.match_gen (int_range 1 3000)
          (list_size (int_bound 3) Test_codec.action_gen)))
    (list_size (int_range 1 40) Gen.packet_gen)

let random_equivalence_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"all dataplanes agree on random tables and packets" ~count:60
         ~print:(fun (rules, packets) ->
           Printf.sprintf "%d rules, %d packets" (List.length rules)
             (List.length packets))
         random_table_gen
         (fun (rules, packets) ->
           let mk () =
             let p = Pipeline.create ~num_tables:1 () in
             List.iter
               (fun (m, priority, actions) ->
                 Flow_table.add (Pipeline.table p 0) ~now_ns:0
                   (Flow_entry.make ~priority ~match_:m
                      [ Flow_entry.Apply_actions actions ]))
               rules;
             p
           in
           let dps =
             [
               Linear.create (mk ());
               Ovs_like.create (mk ());
               Eswitch.create (mk ());
             ]
           in
           List.for_all
             (fun (idx, pkt) ->
               let results =
                 List.map
                   (fun (dp : Dataplane.t) ->
                     outputs_of
                       (dp.Dataplane.process ~now_ns:0 ~in_port:(idx mod 5) pkt))
                   dps
               in
               match results with
               | reference :: rest -> List.for_all (fun r -> r = reference) rest
               | [] -> true)
             (List.mapi (fun i pkt -> (i, pkt)) packets)));
  ]

(* ---- ESwitch's incremental sync against a fresh compile ---- *)

(* Flow-table edits over one or two tables, drawn from small pools so that
   adds replace, priorities tie and modifies and deletes select. *)
type table_op =
  | Add of int * int * int * int * int option  (* table, match, priority, instr, hard timeout *)
  | Readd of int * int  (* table, index of an installed entry, re-added physically *)
  | Modify of int * bool * int * int * int  (* table, strict, match, priority, instr *)
  | Delete of int * bool * int option * int * int  (* table, strict, out_port, match, priority *)
  | Expire of int  (* advance the clock that many seconds, then expire *)
  | Clear of int

let sync_matches =
  [|
    Of_match.(any |> eth_dst (mac 1));
    Of_match.(any |> eth_dst (mac 2));
    Of_match.(any |> eth_type 0x0800 |> ip_dst (prefix "10.0.0.2/32"));
    Of_match.(any |> eth_type 0x0800 |> ip_dst (prefix "10.0.0.0/24"));
    Of_match.(any |> in_port 1);
    Of_match.(any |> eth_type 0x0800 |> ip_proto 17 |> l4_dst 80);
    Of_match.any;
    Of_match.(any |> eth_dst (mac 1) |> in_port 0);
  |]

let sync_priorities = [| 1; 5; 10 |]

let sync_instructions ~table =
  [|
    [ Flow_entry.Apply_actions [ Of_action.output 1 ] ];
    [ Flow_entry.Apply_actions [ Of_action.output 2 ] ];
    [ Flow_entry.Apply_actions [ Of_action.Drop ] ];
    (if table = 0 then [ Flow_entry.Goto_table 1 ]
     else [ Flow_entry.Apply_actions [ Of_action.output 3 ] ]);
  |]

let show_table_op = function
  | Add (t, m, p, i, h) ->
      Printf.sprintf "add t%d m%d p%d i%d%s" t m p i
        (match h with Some s -> Printf.sprintf " hard=%ds" s | None -> "")
  | Readd (t, k) -> Printf.sprintf "readd t%d #%d" t k
  | Modify (t, strict, m, p, i) ->
      Printf.sprintf "modify%s t%d m%d p%d i%d" (if strict then "-strict" else "") t m p i
  | Delete (t, strict, o, m, p) ->
      Printf.sprintf "delete%s t%d m%d p%d%s" (if strict then "-strict" else "") t m p
        (match o with Some o -> Printf.sprintf " out=%d" o | None -> "")
  | Expire s -> Printf.sprintf "expire +%ds" s
  | Clear t -> Printf.sprintf "clear t%d" t

let table_op_gen =
  let open QCheck2.Gen in
  let tbl = int_bound 1 and m = int_bound (Array.length sync_matches - 1) in
  let prio = int_bound (Array.length sync_priorities - 1) and instr = int_bound 3 in
  frequency
    [
      ( 6,
        map3
          (fun (t, m) (p, i) h -> Add (t, m, p, i, h))
          (pair tbl m) (pair prio instr)
          (frequency [ (3, pure None); (1, map Option.some (int_range 1 3)) ]) );
      (3, map2 (fun t k -> Readd (t, k)) tbl (int_bound 20));
      ( 2,
        map3
          (fun (t, strict) (m, p) i -> Modify (t, strict, m, p, i))
          (pair tbl bool) (pair m prio) instr );
      ( 2,
        map3
          (fun (t, strict) (m, p) o -> Delete (t, strict, o, m, p))
          (pair tbl bool) (pair m prio)
          (opt (int_range 1 2)) );
      (1, map (fun s -> Expire s) (int_range 1 3));
      (1, map (fun t -> Clear t) tbl);
    ]

(* Packets that the pools' matches hit and miss: destination MAC, IPv4
   destination, L4 destination port, ARP or not, ingress port. *)
let sync_packet_gen =
  let open QCheck2.Gen in
  map3
    (fun (d, ipd) (port, arp) in_port ->
      let pkt =
        if arp then
          Packet.arp_request ~src_mac:(mac 9) ~src_ip:(ip "10.0.0.9")
            ~target_ip:(ip "10.0.0.2")
        else
          Packet.udp ~dst:(mac d) ~src:(mac 9) ~ip_src:(ip "10.0.0.9")
            ~ip_dst:(ip [| "10.0.0.2"; "10.0.0.7"; "10.0.1.1" |].(ipd))
            ~src_port:1000 ~dst_port:port "x"
      in
      (in_port, pkt))
    (pair (int_range 1 3) (int_bound 2))
    (pair (oneofl [ 80; 81 ]) (frequency [ (5, pure false); (1, pure true) ]))
    (int_bound 2)

let apply_table_op p ~now = function
  | Add (t, m, pr, i, hard_timeout_s) ->
      let t = t mod Pipeline.num_tables p in
      Flow_table.add (Pipeline.table p t) ~now_ns:!now
        (Flow_entry.make ~priority:sync_priorities.(pr) ?hard_timeout_s
           ~match_:sync_matches.(m) (sync_instructions ~table:t).(i))
  | Readd (t, k) -> (
      let table = Pipeline.table p (t mod Pipeline.num_tables p) in
      match Flow_table.entries table with
      | [] -> ()
      | entries ->
          Flow_table.add table ~now_ns:!now
            (List.nth entries (k mod List.length entries)))
  | Modify (t, strict, m, pr, i) ->
      let t = t mod Pipeline.num_tables p in
      ignore
        (Flow_table.modify (Pipeline.table p t) ~strict sync_matches.(m)
           ~priority:sync_priorities.(pr) (sync_instructions ~table:t).(i))
  | Delete (t, strict, out_port, m, pr) ->
      ignore
        (Flow_table.delete
           (Pipeline.table p (t mod Pipeline.num_tables p))
           ~strict ?out_port sync_matches.(m) ~priority:sync_priorities.(pr))
  | Expire s ->
      now := !now + (s * 1_000_000_000);
      for t = 0 to Pipeline.num_tables p - 1 do
        ignore (Flow_table.expire (Pipeline.table p t) ~now_ns:!now)
      done
  | Clear t -> Flow_table.clear (Pipeline.table p (t mod Pipeline.num_tables p))

let sync_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:
           "qcheck: a long-lived eswitch agrees with a fresh one and with \
            linear after every edit"
         ~count:300
         ~print:(fun (tables, ops, _) ->
           Printf.sprintf "%d table(s): %s" tables
             (String.concat "; " (List.map show_table_op ops)))
         QCheck2.Gen.(
           triple (int_range 1 2)
             (list_size (int_range 1 30) table_op_gen)
             (list_size (int_range 1 8) sync_packet_gen))
         (fun (tables, ops, packets) ->
           let p = Pipeline.create ~num_tables:tables () in
           let long = Eswitch.create p and linear = Linear.create p in
           let now = ref 0 in
           let run (dp : Dataplane.t) in_port pkt =
             let r = dp.Dataplane.process ~now_ns:!now ~in_port pkt in
             (Check.Differential.render_result r, r.Pipeline.cycles)
           in
           let templates (dp : Dataplane.t) =
             List.assoc "templates" (dp.Dataplane.stats ())
           in
           List.iteri
             (fun step op ->
               apply_table_op p ~now op;
               let fresh = Eswitch.create p in
               List.iter
                 (fun (in_port, pkt) ->
                   let l, l_cycles = run long in_port pkt in
                   let f, f_cycles = run fresh in_port pkt in
                   let lin, _ = run linear in_port pkt in
                   if l <> f || l <> lin then
                     QCheck2.Test.fail_reportf
                       "step %d (%s): long-lived %s, fresh %s, linear %s" step
                       (show_table_op op) l f lin;
                   if l_cycles <> f_cycles then
                     QCheck2.Test.fail_reportf "step %d: cycles %d vs fresh %d" step
                       l_cycles f_cycles;
                   if templates long <> templates fresh then
                     QCheck2.Test.fail_reportf "step %d: %d templates vs fresh %d" step
                       (templates long) (templates fresh))
                 packets)
             ops;
           true));
    tc "re-adding an exact rule to a 1000-rule table costs at most 64 words" (fun () ->
        let p = Experiments_lib.E5_dataplane.build_pipeline 1000 in
        let table = Pipeline.table p 0 in
        let dp = Eswitch.create p in
        let pkt =
          Packet.udp ~dst:(mac 2) ~src:(mac 1) ~ip_src:(ip "10.0.0.1")
            ~ip_dst:(ip "10.1.1.244") ~src_port:1000 ~dst_port:80 "x"
        in
        let plain = words_per_process dp ~in_port:0 pkt in
        (* what L2 learning does: a fresh entry with an installed rule's
           match and priority *)
        let readd i =
          let rule = 300 + i in
          Flow_table.add table ~now_ns:0
            (Flow_entry.make ~priority:2000
               ~match_:
                 Of_match.(
                   any |> eth_type 0x0800
                   |> ip_dst
                        (Ipv4_addr.Prefix.make
                           (Ipv4_addr.of_octets 10 1 (rule / 256) (rule mod 256))
                           32))
               [ Flow_entry.Apply_actions [ Of_action.output (rule mod 16) ] ])
        in
        let n = 100 and words = ref 0. in
        let recompiles () = List.assoc "recompiles" (dp.Dataplane.stats ()) in
        let before_syncs = recompiles () in
        for i = 1 to n do
          readd i;
          let before = Gc.minor_words () in
          ignore (dp.Dataplane.process ~now_ns:0 ~in_port:0 pkt);
          words := !words +. (Gc.minor_words () -. before)
        done;
        check Alcotest.int "one sync per re-add" n (recompiles () - before_syncs);
        let per_sync = (!words /. float_of_int n) -. plain in
        if per_sync > 64. then
          Alcotest.failf "%.1f minor words per re-add sync (bound 64)" per_sync);
  ]

let suite =
  [
    ("softswitch.equivalence", equivalence_tests);
    ("softswitch.random_equivalence", random_equivalence_tests);
    ("softswitch.eswitch", eswitch_tests);
    ("softswitch.eswitch_sync", sync_tests);
    ("softswitch.caches", cache_tests);
    ("softswitch.pmd", pmd_tests);
    ("softswitch.agent", agent_tests);
  ]
