(* The policy layer: FDD algebraic laws (hash-consing makes them one
   pointer comparison each), compiler structure, interpreter semantics,
   golden table dumps per app, the compiled tables the proactive apps
   install, and the differential proof that compiled tables (and
   parental control's hand-written rules) agree packet-for-packet with
   the denotational interpreter. *)

open Netpkt
module Syn = Policy.Syntax
module Fdd = Policy.Fdd
module Interp = Policy.Interp
module Compile = Policy.Compile
module PE = Check.Policy_equiv

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let prop name ?(count = 100) gen ~print f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen f)

let mac = Mac_addr.make_local
let ip = Ipv4_addr.of_string

(* ---- generators: random predicates and (meter-free) policies ---- *)

let gen_test : Syn.pred QCheck2.Gen.t =
  QCheck2.Gen.oneof
    [
      QCheck2.Gen.map Syn.in_port (QCheck2.Gen.int_range 0 3);
      QCheck2.Gen.map
        (fun i -> Syn.test Syn.Eth_src (Syn.Mac (mac i)))
        (QCheck2.Gen.int_range 1 3);
      QCheck2.Gen.map (fun i -> Syn.eth_dst_is (mac i)) (QCheck2.Gen.int_range 1 3);
      QCheck2.Gen.oneofl [ Syn.eth_type_is 0x0800; Syn.eth_type_is 0x0806 ];
      QCheck2.Gen.map
        (fun i -> Syn.ip_src_is (ip (Printf.sprintf "10.0.0.%d" i)))
        (QCheck2.Gen.int_range 1 3);
      QCheck2.Gen.map
        (fun i -> Syn.ip_dst_is (ip (Printf.sprintf "10.0.0.%d" i)))
        (QCheck2.Gen.int_range 1 3);
      QCheck2.Gen.oneofl [ Syn.ip_proto_is 6; Syn.ip_proto_is 17 ];
      QCheck2.Gen.oneofl [ Syn.l4_dst_is 80; Syn.l4_dst_is 53 ];
      QCheck2.Gen.oneofl [ Syn.test Syn.Vlan_vid (Syn.Int 101) ];
    ]

let gen_pred : Syn.pred QCheck2.Gen.t =
  QCheck2.Gen.sized (fun n ->
      QCheck2.Gen.fix
        (fun self n ->
          if n <= 1 then
            QCheck2.Gen.oneof
              [ gen_test; QCheck2.Gen.oneofl [ Syn.True; Syn.False ] ]
          else
            QCheck2.Gen.oneof
              [
                gen_test;
                QCheck2.Gen.map2
                  (fun a b -> Syn.And (a, b))
                  (self (n / 2)) (self (n / 2));
                QCheck2.Gen.map2
                  (fun a b -> Syn.Or (a, b))
                  (self (n / 2)) (self (n / 2));
                QCheck2.Gen.map (fun a -> Syn.Not a) (self (n - 1));
              ])
        (min n 8))

let gen_mod : Syn.t QCheck2.Gen.t =
  QCheck2.Gen.oneof
    [
      QCheck2.Gen.map
        (fun i -> Syn.Mod (Syn.Eth_dst, Syn.Mac (mac i)))
        (QCheck2.Gen.int_range 1 3);
      QCheck2.Gen.map
        (fun i -> Syn.Mod (Syn.Ip_dst, Syn.Ip (ip (Printf.sprintf "10.0.0.%d" i))))
        (QCheck2.Gen.int_range 1 3);
      QCheck2.Gen.map
        (fun n -> Syn.Mod (Syn.L4_dst, Syn.Int n))
        (QCheck2.Gen.oneofl [ 80; 53 ]);
      QCheck2.Gen.map Syn.fwd (QCheck2.Gen.int_range 0 3);
      QCheck2.Gen.oneofl [ Syn.flood; Syn.discard; Syn.to_controller () ];
    ]

(* Meter- and balance-free: the laws below quantify over the pure
   fragment (seq raises on two meters in sequence, by design). *)
let gen_policy : Syn.t QCheck2.Gen.t =
  QCheck2.Gen.sized (fun n ->
      QCheck2.Gen.fix
        (fun self n ->
          if n <= 1 then
            QCheck2.Gen.oneof
              [ QCheck2.Gen.map Syn.filter gen_pred; gen_mod ]
          else
            QCheck2.Gen.oneof
              [
                QCheck2.Gen.map Syn.filter gen_pred;
                gen_mod;
                QCheck2.Gen.map2 Syn.union (self (n / 2)) (self (n / 2));
                QCheck2.Gen.map2 Syn.seq (self (n / 2)) (self (n / 2));
                QCheck2.Gen.map2 Syn.orelse (self (n / 2)) (self (n / 2));
              ])
        (min n 10))

let gen_policy2 = QCheck2.Gen.pair gen_policy gen_policy
let gen_policy3 = QCheck2.Gen.triple gen_policy gen_policy gen_policy
let print_policy = Syn.to_string
let print_policy2 (p, q) = Syn.to_string p ^ " || " ^ Syn.to_string q

let print_policy3 (p, q, r) =
  String.concat " || " (List.map Syn.to_string [ p; q; r ])

let print_pred p = Syn.to_string (Syn.filter p)
let fdd_of_pred p = Fdd.of_policy (Syn.filter p)
let fdd_eq name a b =
  if not (Fdd.equal a b) then
    QCheck2.Test.fail_reportf "%s:@.%s@.  !=@.%s" name (Fdd.to_string a)
      (Fdd.to_string b)
  else true

(* ---- FDD algebraic laws ---- *)

let law_tests =
  [
    prop "union idempotent" gen_policy ~print:print_policy (fun p ->
        fdd_eq "p + p = p" (Fdd.of_policy (Syn.union p p)) (Fdd.of_policy p));
    prop "union commutative" gen_policy2 ~print:print_policy2 (fun (p, q) ->
        fdd_eq "p + q = q + p"
          (Fdd.of_policy (Syn.union p q))
          (Fdd.of_policy (Syn.union q p)));
    prop "union associative" gen_policy3 ~print:print_policy3 (fun (p, q, r) ->
        fdd_eq "(p + q) + r = p + (q + r)"
          (Fdd.of_policy (Syn.union (Syn.union p q) r))
          (Fdd.of_policy (Syn.union p (Syn.union q r))));
    prop "seq associative" gen_policy3 ~print:print_policy3 (fun (p, q, r) ->
        fdd_eq "(p ; q) ; r = p ; (q ; r)"
          (Fdd.of_policy (Syn.seq (Syn.seq p q) r))
          (Fdd.of_policy (Syn.seq p (Syn.seq q r))));
    prop "orelse associative" gen_policy3 ~print:print_policy3
      (fun (p, q, r) ->
        fdd_eq "(p |? q) |? r = p |? (q |? r)"
          (Fdd.of_policy (Syn.orelse (Syn.orelse p q) r))
          (Fdd.of_policy (Syn.orelse p (Syn.orelse q r))));
    prop "negation involution" gen_pred ~print:print_pred (fun a ->
        fdd_eq "!!a = a"
          (fdd_of_pred (Syn.neg (Syn.neg a)))
          (fdd_of_pred a));
    prop "De Morgan" (QCheck2.Gen.pair gen_pred gen_pred)
      ~print:(fun (a, b) -> print_pred a ^ " || " ^ print_pred b)
      (fun (a, b) ->
        fdd_eq "!(a & b) = !a + !b"
          (fdd_of_pred (Syn.neg (Syn.And (a, b))))
          (fdd_of_pred (Syn.Or (Syn.neg a, Syn.neg b))));
    prop "conjunction commutes (canonical test order)"
      (QCheck2.Gen.pair gen_pred gen_pred)
      ~print:(fun (a, b) -> print_pred a ^ " || " ^ print_pred b)
      (fun (a, b) ->
        fdd_eq "a & b = b & a"
          (fdd_of_pred (Syn.And (a, b)))
          (fdd_of_pred (Syn.And (b, a))));
    prop "filter of conjunction = seq of filters" gen_pred ~print:print_pred
      (fun a ->
        fdd_eq "filter (a & a') = filter a ; filter a'"
          (Fdd.of_policy (Syn.filter (Syn.And (a, a))))
          (Fdd.of_policy (Syn.filter a)));
    prop "seq drop absorbing" gen_policy ~print:print_policy (fun p ->
        fdd_eq "p ; drop = drop"
          (Fdd.of_policy (Syn.seq p Syn.drop))
          Fdd.drop);
    prop "seq id units" gen_policy ~print:print_policy (fun p ->
        let d = Fdd.of_policy p in
        ignore (fdd_eq "id ; p = p" (Fdd.of_policy (Syn.seq Syn.id p)) d);
        fdd_eq "p ; id = p" (Fdd.of_policy (Syn.seq p Syn.id)) d);
    prop "union drop unit" gen_policy ~print:print_policy (fun p ->
        fdd_eq "p + drop = p"
          (Fdd.of_policy (Syn.union p Syn.drop))
          (Fdd.of_policy p));
    prop "orelse drop unit, orelse idempotent" gen_policy ~print:print_policy
      (fun p ->
        let d = Fdd.of_policy p in
        ignore
          (fdd_eq "drop |? p = p" (Fdd.of_policy (Syn.orelse Syn.drop p)) d);
        ignore (fdd_eq "p |? drop = p" (Fdd.of_policy (Syn.orelse p Syn.drop)) d);
        fdd_eq "p |? p = p" (Fdd.of_policy (Syn.orelse p p)) d);
    prop "compile idempotent (same rendered table)" gen_policy
      ~print:print_policy (fun p ->
        let r1 = Compile.render (Compile.compile p) in
        let r2 = Compile.render (Compile.compile p) in
        if r1 <> r2 then
          QCheck2.Test.fail_reportf "renders differ:@.%s@.vs@.%s" r1 r2
        else true);
  ]

(* ---- FDD structure units ---- *)

let structure_tests =
  [
    tc "field order puts Loc at the root" (fun () ->
        let d =
          fdd_of_pred (Syn.And (Syn.ip_src_is (ip "10.0.0.1"), Syn.in_port 2))
        in
        match d.Fdd.node with
        | Fdd.Branch ((Syn.Loc, _), _, _) -> ()
        | _ -> Alcotest.failf "root is not a Loc test:@.%s" (Fdd.to_string d));
    tc "complementary guards collapse to one leaf" (fun () ->
        let a = Syn.eth_dst_is (mac 7) in
        let d =
          Fdd.of_policy
            (Syn.union
               (Syn.seq (Syn.filter a) (Syn.fwd 1))
               (Syn.seq (Syn.filter (Syn.neg a)) (Syn.fwd 1)))
        in
        check Alcotest.bool "same as unconditional forward" true
          (Fdd.equal d (Fdd.of_policy (Syn.fwd 1))));
    tc "hash-consing shares equal subtrees" (fun () ->
        let frag =
          Syn.seq (Syn.filter (Syn.eth_dst_is (mac 1))) (Syn.fwd 1)
        in
        check Alcotest.bool "union with itself is the same node" true
          (Fdd.of_policy frag == Fdd.of_policy (Syn.union frag frag)));
  ]

(* ---- compiler structure units ---- *)

(* A compiled table's (flow, group, meter) message counts. *)
let counts c =
  List.fold_left
    (fun (f, g, m) -> function
      | Openflow.Of_message.Flow_mod _ -> (f + 1, g, m)
      | Openflow.Of_message.Group_mod _ -> (f, g + 1, m)
      | Openflow.Of_message.Meter_mod _ -> (f, g, m + 1)
      | _ -> (f, g, m))
    (0, 0, 0) (Compile.messages c)

let flow_mods c =
  List.filter_map
    (function Openflow.Of_message.Flow_mod fm -> Some fm | _ -> None)
    (Compile.messages c)

let priorities c =
  List.map (fun fm -> fm.Openflow.Of_message.priority) (flow_mods c)

let compile_tests =
  [
    tc "tables are total: catch-all drop at priority 0" (fun () ->
        let c = Compile.compile (PE.find_spec "gateway" |> Option.get).PE.policy in
        let prios = priorities c in
        check Alcotest.bool "has rules" true (prios <> []);
        let last = List.nth prios (List.length prios - 1) in
        check Alcotest.int "last priority" 0 last;
        (* strictly descending priorities *)
        ignore
          (List.fold_left
             (fun prev p ->
               check Alcotest.bool "descending" true (p < prev);
               p)
             max_int prios);
        (* the rest count up from the band's base, below its ceiling *)
        let band = List.filter (fun p -> p <> 0) prios in
        check Alcotest.int "lowest rule at the base" Compile.base
          (List.nth band (List.length band - 1));
        check Alcotest.bool "below the ceiling" true
          (List.hd band < Compile.ceiling));
    tc "a policy ending in pass has no catch-all" (fun () ->
        let c =
          Compile.compile
            (Syn.orelse (Syn.seq (Syn.filter (Syn.in_port 1)) (Syn.fwd 2)) Syn.pass)
        in
        check Alcotest.(list int) "one rule, at the base" [ Compile.base ]
          (priorities c);
        check Alcotest.(list int) "pass alone installs nothing" []
          (priorities (Compile.compile Syn.pass)));
    tc "an interior pass shadowing a lower rule is rejected" (fun () ->
        let bad =
          Syn.orelse (Syn.seq (Syn.filter (Syn.in_port 1)) Syn.pass) (Syn.fwd 2)
        in
        Alcotest.check_raises "raises"
          (Invalid_argument
             "Policy.Compile: pass leaf {loc:=pass} at in_port=1 shadows a \
              lower rule")
          (fun () -> ignore (Compile.compile bad)));
    tc "pass inside a multi-action leaf is rejected" (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument
             "Policy.Compile: pass inside the multi-action leaf {loc:=port:1 , \
              loc:=pass} has no flow-rule encoding")
          (fun () -> ignore (Compile.compile (Syn.union Syn.pass (Syn.fwd 1)))));
    tc "multi-output leaf becomes an All group" (fun () ->
        let c = Compile.compile (Syn.union (Syn.fwd 1) (Syn.fwd 2)) in
        let _, groups, meters = counts c in
        check Alcotest.int "one group" 1 groups;
        check Alcotest.int "no meters" 0 meters);
    tc "meter in a multi-action leaf is rejected" (fun () ->
        let bad =
          Syn.union
            (Syn.seq (Syn.police ~meter_id:1 ~rate_kbps:100 ~burst_kb:8) (Syn.fwd 1))
            (Syn.fwd 2)
        in
        Alcotest.check_raises "raises"
          (Invalid_argument
             "Policy.Compile: a meter inside a multi-action leaf has no \
              flow-rule encoding")
          (fun () -> ignore (Compile.compile bad)));
    tc "conflicting meter bands are rejected" (fun () ->
        let bad =
          Syn.union
            (Syn.seq (Syn.filter (Syn.in_port 0))
               (Syn.seq (Syn.police ~meter_id:1 ~rate_kbps:100 ~burst_kb:8) (Syn.fwd 1)))
            (Syn.seq (Syn.filter (Syn.in_port 1))
               (Syn.seq (Syn.police ~meter_id:1 ~rate_kbps:200 ~burst_kb:8) (Syn.fwd 1)))
        in
        (try
           ignore (Compile.compile bad);
           Alcotest.fail "compile accepted conflicting bands"
         with Invalid_argument _ -> ());
        try
          ignore (Interp.create bad);
          Alcotest.fail "interp accepted conflicting bands"
        with Invalid_argument _ -> ());
    tc "composed gateway table is no bigger than the frozen hand-written union"
      (fun () ->
        let g = Sdnctl.Gateway.default () in
        (* The two-table composition of the apps' former hand-written
           rule pushes took 27 flow rules (EXPERIMENTS.md E18); those
           builders are gone, so the figure is frozen here. *)
        let hand_rules = 27 in
        let flows, _, _ = counts (Compile.compile (Sdnctl.Gateway.policy g)) in
        check Alcotest.bool
          (Printf.sprintf "compiled %d <= hand-written %d" flows hand_rules)
          true (flows <= hand_rules));
  ]

(* ---- interpreter semantics units ---- *)

let pkt_tcp ?(src = mac 1) ?(dst = mac 2) ?(ip_src = ip "10.0.0.1")
    ?(ip_dst = ip "10.0.0.2") ?(dst_port = 80) () =
  Packet.tcp ~dst ~src ~ip_src ~ip_dst ~src_port:1234 ~dst_port "payload"

let outputs it ~now_ns pkt =
  (Interp.run it ~now_ns ~in_port:0 pkt).Openflow.Pipeline.outputs

let interp_tests =
  [
    tc "ghost write: set then test an absent field" (fun () ->
        let x = ip "192.0.2.1" in
        let p =
          Syn.seq (Syn.Mod (Syn.Ip_dst, Syn.Ip x))
            (Syn.seq (Syn.filter (Syn.ip_dst_is x)) (Syn.fwd 1))
        in
        let it = Interp.create p in
        let arp =
          Packet.arp_request ~src_mac:(mac 1) ~src_ip:(ip "10.0.0.1")
            ~target_ip:(ip "10.0.0.2")
        in
        let r = Interp.run it ~now_ns:0 ~in_port:0 arp in
        match r.Openflow.Pipeline.outputs with
        | [ Openflow.Pipeline.Port (1, out) ] ->
            (* the test passed on the ghost value, but ARP carries no IP
               header to rewrite *)
            check Alcotest.string "packet unmodified"
              (Check.Hex.encode (Packet.encode arp))
              (Check.Hex.encode (Packet.encode out))
        | _ ->
            Alcotest.failf "expected port 1, got %s" (PE.normalize ~in_port:0 r));
    tc "outputs are a set: duplicate effects collapse" (fun () ->
        let p = Syn.union (Syn.fwd 1) (Syn.fwd 1) in
        let it = Interp.create p in
        check Alcotest.int "one output" 1
          (List.length (outputs it ~now_ns:0 (pkt_tcp ()))));
    tc "police: depleted bucket drops, time refills" (fun () ->
        let p =
          Syn.seq (Syn.police ~meter_id:1 ~rate_kbps:8 ~burst_kb:1) (Syn.fwd 1)
        in
        let it = Interp.create p in
        let pkt = Packet.pad_to 1000 (pkt_tcp ()) in
        let run now = List.length (outputs it ~now_ns:now pkt) in
        check Alcotest.int "first passes on burst" 1 (run 0);
        check Alcotest.int "burst exhausted" 0 (run 1000);
        (* 8 kbps = 1 kB/s: one second refills the kilobyte burst *)
        check Alcotest.int "refilled after a second" 1 (run 1_100_000_000));
    tc "balance is deterministic per flow" (fun () ->
        let sp = Option.get (PE.find_spec "lb") in
        let it = Interp.create sp.PE.policy in
        let vip_pkt =
          pkt_tcp ~dst:(mac 0x91) ~ip_dst:(ip "10.9.0.9") ()
        in
        let o1 = Interp.run it ~now_ns:0 ~in_port:0 vip_pkt in
        let o2 = Interp.run it ~now_ns:1000 ~in_port:0 vip_pkt in
        check Alcotest.string "same backend both times"
          (PE.normalize ~in_port:0 o1)
          (PE.normalize ~in_port:0 o2);
        check Alcotest.int "exactly one backend" 1
          (List.length o1.Openflow.Pipeline.outputs));
    tc "discard keeps meter side effects" (fun () ->
        let p =
          Syn.seq (Syn.police ~meter_id:1 ~rate_kbps:8 ~burst_kb:1)
            (Syn.orelse Syn.drop Syn.discard)
        in
        let it = Interp.create p in
        let pkt = Packet.pad_to 1000 (pkt_tcp ()) in
        check Alcotest.int "no output" 0
          (List.length (outputs it ~now_ns:0 pkt));
        (* the discard billed the bucket: a forwarding policy sharing the
           meter would now drop — observable through a fresh interp with
           the same packet sequence *)
        let p2 =
          Syn.seq (Syn.police ~meter_id:1 ~rate_kbps:8 ~burst_kb:1) (Syn.fwd 1)
        in
        let it2 = Interp.create p2 in
        ignore (Interp.run it2 ~now_ns:0 ~in_port:0 pkt);
        check Alcotest.int "second packet metered out" 0
          (List.length (outputs it2 ~now_ns:1000 pkt)));
    tc "pass is a table miss, an answer to orelse, overridden by seq"
      (fun () ->
        let run p =
          PE.normalize ~in_port:0
            (Interp.run (Interp.create p) ~now_ns:0 ~in_port:0 (pkt_tcp ()))
        in
        check Alcotest.string "pass" "[] miss" (run Syn.pass);
        check Alcotest.string "orelse stops at pass" "[] miss"
          (run (Syn.orelse Syn.pass (Syn.fwd 1)));
        check Alcotest.string "orelse falls through drop" (run (Syn.fwd 1))
          (run (Syn.orelse Syn.drop (Syn.fwd 1)));
        check Alcotest.string "a later write overrides pass" (run (Syn.fwd 1))
          (run (Syn.seq Syn.pass (Syn.fwd 1))));
  ]

(* ---- golden table dumps ---- *)

let golden_tests =
  List.map
    (fun name ->
      tc (Printf.sprintf "golden dump: %s" name) (fun () ->
          let sp = Option.get (PE.find_spec name) in
          let rendered = Compile.render (Compile.compile sp.PE.policy) in
          let path = Printf.sprintf "golden/policy_%s.txt" name in
          let ic = open_in_bin path in
          let expected =
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          check Alcotest.string (path ^ " matches") expected rendered))
    [ "dmz"; "lb"; "parental"; "ratelimit"; "gateway" ]

(* ---- the proactive apps install their compiled tables ---- *)

(* The counts in a golden dump's header line. *)
let golden_counts name =
  let ic = open_in_bin (Printf.sprintf "golden/policy_%s.txt" name) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      Scanf.sscanf (input_line ic)
        "policy-table table=0 rules=%d groups=%d meters=%d"
        (fun r g m -> (r, g, m)))

(* Table 0's rule, group and meter counts after [app] saw the switch. *)
let installed_counts app =
  let engine = Simnet.Engine.create () in
  let sw = Softswitch.Soft_switch.create engine ~name:"sw" ~ports:4 () in
  let ctrl = Sdnctl.Controller.create engine () in
  Sdnctl.Controller.add_app ctrl app;
  ignore (Sdnctl.Controller.attach_switch ctrl sw);
  Simnet.Engine.run engine ~until:(Simnet.Sim_time.of_ns (Simnet.Sim_time.ms 5));
  let p = Softswitch.Soft_switch.pipeline sw in
  Openflow.
    ( Flow_table.size (Pipeline.table p 0),
      Group_table.size (Pipeline.groups p),
      Meter_table.size (Pipeline.meters p) )

(* Each app is built with the parameters of the spec of the same name. *)
let install_tests =
  let counts = Alcotest.(triple int int int) in
  let installs name app =
    tc (Printf.sprintf "%s installs its compiled table" name) (fun () ->
        check counts "(rules, groups, meters) = the golden header"
          (golden_counts name) (installed_counts (app ())))
  in
  [
    installs "dmz" (fun () ->
        let vm i =
          { Sdnctl.Dmz.vm_ip = ip (Printf.sprintf "10.0.0.%d" i);
            vm_mac = mac (0x20 + i); vm_port = i - 1 }
        in
        Sdnctl.Dmz.create
          { Sdnctl.Dmz.vms = [ vm 1; vm 2; vm 3 ];
            allowed =
              [ (ip "10.0.0.1", ip "10.0.0.2"); (ip "10.0.0.1", ip "10.0.0.3") ] });
    installs "lb" (fun () ->
        Sdnctl.Load_balancer.create ~vip_ip:(ip "10.9.0.9") ~vip_mac:(mac 0x91)
          ~ingress_port:0
          ~backends:
            (List.init 3 (fun i ->
                 { Sdnctl.Load_balancer.backend_ip =
                     ip (Printf.sprintf "10.9.1.%d" (i + 1));
                   backend_mac = mac (0xb1 + i); backend_port = i + 1 })));
    installs "parental" (fun () ->
        Sdnctl.Parental_control.app
          (Sdnctl.Parental_control.create
             ~sites:
               [ ("blocked.example", ip "203.0.113.5");
                 ("other.example", ip "203.0.113.7") ]
             ~blocked:
               [ (ip "10.5.0.1", "blocked.example");
                 (ip "10.5.0.2", "nosuch.example");
                 (ip "10.5.0.1", "nosuch.example") ]
             ()));
    installs "ratelimit" (fun () ->
        Sdnctl.Rate_limiter.create
          ~limits:
            [ { Sdnctl.Rate_limiter.subject = ip "10.7.0.1"; rate_kbps = 512;
                burst_kb = 16 };
              { Sdnctl.Rate_limiter.subject = ip "10.7.0.2"; rate_kbps = 256;
                burst_kb = 8 } ]
          (Sdnctl.Rate_limiter.table1_fragment ~num_hosts:4 ()));
    tc "duplicate rate-limit subjects are rejected by name" (fun () ->
        let limit subject rate_kbps =
          { Sdnctl.Rate_limiter.subject = ip subject; rate_kbps; burst_kb = 8 }
        in
        let limits =
          [ limit "10.7.0.1" 512; limit "10.7.0.2" 256; limit "10.7.0.1" 128 ]
        in
        let err = Invalid_argument "Rate_limiter: duplicate subject 10.7.0.1" in
        Alcotest.check_raises "fragment" err (fun () ->
            ignore (Sdnctl.Rate_limiter.fragment ~limits ()));
        Alcotest.check_raises "create" err (fun () ->
            ignore (Sdnctl.Rate_limiter.create ~limits Syn.drop)));
  ]

(* ---- the equivalence proof itself ---- *)

let equiv_cases name = if name = "gateway" then 30 else 60

let equiv_tests =
  List.map
    (fun sp ->
      tc
        (Printf.sprintf "equivalence: %s (compiled = interpreter)"
           sp.PE.spec_name)
        (fun () ->
          let r =
            PE.run ~spec:sp ~seed:42 ~cases:(equiv_cases sp.PE.spec_name) ()
          in
          List.iter
            (fun d -> Alcotest.failf "%a" PE.pp_divergence d)
            r.PE.divergences;
          check Alcotest.bool "packets compared" true (r.PE.packets > 100)))
    (PE.specs ())

(* The first divergence of [sp] over seeds 1..200. *)
let hunt sp =
  let rec go seed =
    if seed > 200 then Alcotest.fail "no divergence found in 200 seeds"
    else match PE.check_case sp ~seed with None -> go (seed + 1) | Some d -> d
  in
  go 1

let harness_tests =
  [
    tc "broken hand-written table diverges and shrinks to one packet" (fun () ->
        let sp = Option.get (PE.find_spec "dmz") in
        (* The compiled table minus its ARP flood rule: ARP between VMs
           now dead-ends in the catch-all drop while the policy still
           floods it. *)
        let broken =
          List.filter
            (function
              | Openflow.Of_message.Flow_mod fm -> (
                  match
                    fm.Openflow.Of_message.match_.Openflow.Of_match.eth_type
                  with
                  | Some 0x0806 -> false
                  | _ -> true)
              | _ -> true)
            sp.PE.table
        in
        let d = hunt { sp with PE.spec_name = "dmz-broken"; table = broken } in
        check Alcotest.string "the sabotaged table diverged" "compiled:oracle"
          d.PE.impl;
        check Alcotest.int "shrunk to a single packet" 1
          (List.length d.PE.case.PE.steps));
    tc "broken compiler pass (reversed priorities) is caught" (fun () ->
        let sp = Option.get (PE.find_spec "dmz") in
        let fms = flow_mods (Compile.compile sp.PE.policy) in
        let prios = List.map (fun fm -> fm.Openflow.Of_message.priority) fms in
        (* Rule order is now inverted, so shadowing breaks and the
           interpreter disagrees. *)
        let broken =
          List.map2
            (fun fm p ->
              Openflow.Of_message.Flow_mod
                { fm with Openflow.Of_message.priority = p })
            fms (List.rev prios)
        in
        let d = hunt { sp with PE.spec_name = "dmz-reversed"; table = broken } in
        check Alcotest.string "the sabotaged table diverged" "compiled:oracle"
          d.PE.impl);
    tc "a table that drops instead of passing diverges and shrinks" (fun () ->
        let sp = Option.get (PE.find_spec "parental") in
        (* The pass encoding undone: the catch-all drop is back, so what
           the policy leaves to the next app dies in this table. *)
        let broken =
          sp.PE.table
          @ [ Openflow.Of_message.Flow_mod
                (Openflow.Of_message.add_flow ~priority:0
                   ~match_:Openflow.Of_match.any
                   [ Openflow.Flow_entry.Apply_actions [ Openflow.Of_action.Drop ] ]) ]
        in
        let d = hunt { sp with PE.spec_name = "parental-no-pass"; table = broken } in
        check Alcotest.string "the interpreter missed" "[] miss" d.PE.expected;
        check Alcotest.string "the table dropped" "[]" d.PE.actual;
        check Alcotest.int "shrunk to a single packet" 1
          (List.length d.PE.case.PE.steps));
    prop "repro files are a to_string/of_string fixpoint" ~count:50
      (QCheck2.Gen.int_range 1 10_000) ~print:string_of_int (fun seed ->
        let sp = Option.get (PE.find_spec "gateway") in
        let case = PE.gen_case sp ~seed in
        let text = PE.to_string case in
        match PE.of_string text with
        | Error e -> QCheck2.Test.fail_reportf "parse failed: %s" e
        | Ok case2 ->
            let text2 = PE.to_string case2 in
            if text = text2 then true
            else
              QCheck2.Test.fail_reportf "not a fixpoint:@.%s@.vs@.%s" text
                text2);
    tc "pinned policy repros replay without divergence" (fun () ->
        List.iter
          (fun path ->
            match PE.load ~path with
            | Error e -> Alcotest.failf "%s: %s" path e
            | Ok (Some d) ->
                Alcotest.failf "%s reproduces: %a" path PE.pp_divergence d
            | Ok None -> ())
          (let paths = Test_check.corpus_repros ~policy:true in
           check Alcotest.bool "has repros" true (List.length paths >= 2);
           paths));
    tc "generated gateway case for seed 1 is pinned" (fun () ->
        let sp = Option.get (PE.find_spec "gateway") in
        check Alcotest.string "digest" "5da214e9e4c6b8101a2d708f9fba7456"
          (Digest.to_hex (Digest.string (PE.to_string (PE.gen_case sp ~seed:1)))));
    tc "report accounting" (fun () ->
        let sp = Option.get (PE.find_spec "parental") in
        let r = PE.run ~spec:sp ~seed:9 ~cases:10 () in
        check Alcotest.int "cases" 10 r.PE.cases;
        check Alcotest.bool "packets counted" true (r.PE.packets >= 10 * 15));
  ]

let suite =
  [
    ("policy.fdd-laws", law_tests);
    ("policy.fdd-structure", structure_tests);
    ("policy.compile", compile_tests);
    ("policy.interp", interp_tests);
    ("policy.golden", golden_tests);
    ("policy.install", install_tests);
    ("policy.equivalence", equiv_tests @ harness_tests);
  ]
