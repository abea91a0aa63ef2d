(* The conformance subsystem checking itself: corpus replay, pinned
   fuzzer findings, differential properties against the oracle, and the
   SS_1 transparency invariant. *)

open Netpkt
module D = Check.Differential
module P = Openflow.Pipeline

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let prop name ?(count = 100) gen ~print f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen f)

(* ---- corpus ---- *)

let read_hex_corpus path =
  let ic = open_in path in
  let frames = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then
         frames := Check.Hex.decode_exn line :: !frames
     done
   with End_of_file -> close_in ic);
  List.rev !frames

(* Every pinned repro under corpus/: [policy_*.repro] are Policy_equiv
   cases, the rest Differential scenarios.  Pinning one is adding the
   file. *)
let corpus_repros ~policy =
  Sys.readdir "corpus" |> Array.to_list
  |> List.filter (fun f ->
         Filename.check_suffix f ".repro"
         && String.starts_with ~prefix:"policy_" f = policy)
  |> List.sort String.compare
  |> List.map (Filename.concat "corpus")

let corpus_tests =
  [
    tc "valid corpus replays clean" (fun () ->
        let frames = read_hex_corpus "corpus/openflow_valid.hex" in
        check Alcotest.bool "has frames" true (List.length frames >= 20);
        let r = Check.Codec_fuzz.run_corpus frames in
        List.iter
          (fun f -> Alcotest.failf "%a" Check.Codec_fuzz.pp_failure f)
          r.Check.Codec_fuzz.failures;
        (* every valid-corpus frame must actually decode *)
        check Alcotest.int "all decoded" r.Check.Codec_fuzz.cases
          r.Check.Codec_fuzz.decoded);
    tc "tricky corpus is rejected, never thrown" (fun () ->
        let frames = read_hex_corpus "corpus/openflow_tricky.hex" in
        check Alcotest.bool "has frames" true (List.length frames >= 8);
        let r = Check.Codec_fuzz.run_corpus frames in
        List.iter
          (fun f -> Alcotest.failf "%a" Check.Codec_fuzz.pp_failure f)
          r.Check.Codec_fuzz.failures;
        check Alcotest.int "all rejected" r.Check.Codec_fuzz.cases
          r.Check.Codec_fuzz.rejected);
    tc "pinned repros replay without divergence" (fun () ->
        let paths = corpus_repros ~policy:false in
        check Alcotest.bool "has repros" true (List.length paths >= 3);
        List.iter
          (fun path ->
            match D.load ~path with
            | Ok None -> ()
            | Ok (Some d) ->
                Alcotest.failf "%s reproduces: %a" path D.pp_divergence d
            | Error e -> Alcotest.failf "%s failed to parse: %s" path e)
          paths);
  ]

(* ---- the shared harness ---- *)

(* [sub] occurs in [l] in order, not necessarily contiguously. *)
let rec subsequence sub l =
  match (sub, l) with
  | [], _ -> true
  | _, [] -> false
  | x :: sub', y :: l' -> if x = y then subsequence sub' l' else subsequence sub l'

let harness_tests =
  let shrink_to target steps =
    let run l = if subsequence target l then Some l else None in
    let d = Check.Fuzz.shrink run steps steps in
    (d, run)
  in
  let one_minimal run d =
    List.for_all (fun i -> run (List.filteri (fun j _ -> j <> i) d) = None)
      (List.init (List.length d) Fun.id)
  in
  [
    tc "shrink keeps step order and is 1-minimal" (fun () ->
        let d, run = shrink_to [ 5; 2; 5 ] [ 9; 2; 5; 1; 2; 8; 5; 2; 7 ] in
        check Alcotest.(list int) "shrunk" [ 5; 2; 5 ] d;
        check Alcotest.bool "1-minimal" true (one_minimal run d));
    prop "shrink finds exactly the divergent subsequence" ~count:200
      QCheck2.Gen.(
        let* target = list_size (int_bound 4) (int_bound 5) in
        let* noise = list_size (int_bound 30) (int_bound 5) in
        let+ picks = list_size (int_bound 34) bool in
        (* [target] spread through [noise] in order *)
        let rec interleave picks t n =
          match (picks, t, n) with
          | _, [], n -> n
          | _, t, [] -> t
          | [], t, n -> t @ n
          | p :: ps, x :: t', y :: n' ->
              if p then x :: interleave ps t' n else y :: interleave ps t n'
        in
        (target, interleave picks target noise))
      ~print:(fun (t, l) ->
        Printf.sprintf "target [%s] in [%s]"
          (String.concat ";" (List.map string_of_int t))
          (String.concat ";" (List.map string_of_int l)))
      (fun (target, steps) ->
        let d, run = shrink_to target steps in
        d = target && one_minimal run d);
    tc "generated scenario for seed 1 is pinned" (fun () ->
        (* A change here changes every seed's case stream: fuzz reports
           and repros stop matching earlier runs. *)
        check Alcotest.string "digest" "dd2f1fd321c146fd8f83d80a962db56f"
          (Digest.to_hex
             (Digest.string (D.to_string (D.gen_scenario (Simnet.Rng.create 1))))));
  ]

(* ---- pinned regression: group chaining loops ---- *)

let group_loop_tests =
  let open Openflow in
  let packet =
    Packet.udp
      ~dst:(Mac_addr.of_string "02:00:00:00:00:02")
      ~src:(Mac_addr.of_string "02:00:00:00:00:01")
      ~ip_src:(Ipv4_addr.of_string "10.0.0.1")
      ~ip_dst:(Ipv4_addr.of_string "10.0.0.2")
      ~src_port:1000 ~dst_port:2000 "loop"
  in
  let build buckets_of_group =
    let pipe = P.create ~num_tables:1 () in
    List.iter
      (fun (id, actions) ->
        Group_table.add (P.groups pipe) ~id Group_table.All
          [ { Group_table.weight = 1; actions } ])
      buckets_of_group;
    Flow_table.add (P.table pipe 0) ~now_ns:0
      (Flow_entry.make ~priority:100 ~match_:Of_match.any
         [ Flow_entry.Apply_actions [ Of_action.Group 1 ] ]);
    pipe
  in
  let outputs_of pipe =
    let r = P.execute pipe ~now_ns:1000 ~in_port:0 packet in
    List.filter_map
      (function P.Port (p, _) -> Some p | _ -> None)
      r.P.outputs
  in
  [
    tc "self-referencing group terminates" (fun () ->
        (* group 1's bucket invokes group 1: before the fix this overran
           the stack; now the cyclic reference is a no-op. *)
        let pipe =
          build [ (1, [ Of_action.Group 1; Of_action.output 2 ]) ]
        in
        check Alcotest.(list int) "ports" [ 2 ] (outputs_of pipe));
    tc "mutually recursive groups terminate" (fun () ->
        let pipe =
          build
            [
              (1, [ Of_action.Group 2; Of_action.output 2 ]);
              (2, [ Of_action.Group 1; Of_action.output 3 ]);
            ]
        in
        (* 1 -> (2 -> (1 cut, out 3), out 2) *)
        check Alcotest.(list int) "ports" [ 3; 2 ] (outputs_of pipe));
    tc "oracle agrees on cyclic groups" (fun () ->
        let mk () =
          build
            [
              (1, [ Of_action.Group 2; Of_action.output 2 ]);
              (2, [ Of_action.Group 1; Of_action.output 3 ]);
            ]
        in
        let expected =
          D.render_result
            (Check.Oracle.execute (mk ()) ~now_ns:1000 ~in_port:0 packet)
        in
        let actual =
          D.render_result (P.execute (mk ()) ~now_ns:1000 ~in_port:0 packet)
        in
        check Alcotest.string "rendered" expected actual);
  ]

(* ---- differential properties ---- *)

let seed_gen = QCheck2.Gen.int_range 1 1_000_000

let diff_tests =
  [
    prop "all backends agree with the oracle" ~count:150 seed_gen
      ~print:string_of_int (fun seed ->
        match D.check_case ~seed with
        | None -> true
        | Some d ->
            QCheck2.Test.fail_reportf "%a" D.pp_divergence d);
    prop "caches survive flow-mod churn" ~count:60 seed_gen
      ~print:string_of_int (fun seed ->
        (* Directed at cache invalidation: every flow-mod is immediately
           followed by the same packet that was forwarded just before it,
           so a stale EMC/megaflow entry or unrecompiled eswitch template
           diverges from the oracle at once. *)
        let rng = Simnet.Rng.create seed in
        let tables = 1 + Simnet.Rng.int rng 3 in
        let ports = 2 + Simnet.Rng.int rng 3 in
        let now = ref 1000 in
        let steps = ref [] in
        let push s = steps := s :: !steps in
        for _ = 1 to 12 do
          let pkt = D.gen_packet rng in
          now := !now + 1 + Simnet.Rng.int rng 1_000_000;
          push
            (D.Packet
               { now_ns = !now; in_port = Simnet.Rng.int rng ports; pkt });
          now := !now + 1;
          push
            (D.Msg
               {
                 now_ns = !now;
                 msg =
                   Openflow.Of_message.Flow_mod
                     (D.gen_flow_mod rng ~tables ~ports ~force_add:false);
               });
          now := !now + 1;
          (* the packet right after the mod is the one a stale cache
             would misforward *)
          push
            (D.Packet
               { now_ns = !now; in_port = Simnet.Rng.int rng ports; pkt });
          if Simnet.Rng.int rng 4 = 0 then begin
            now := !now + 3_000_000_000;
            push (D.Expire { now_ns = !now })
          end
        done;
        let scenario = { D.tables; ports; steps = List.rev !steps } in
        match D.run_scenario scenario with
        | None -> true
        | Some d ->
            QCheck2.Test.fail_reportf "%a" D.pp_divergence d);
    prop "repro files round-trip" ~count:100 seed_gen ~print:string_of_int
      (fun seed ->
        let sc = D.gen_scenario (Simnet.Rng.create seed) in
        let text = D.to_string sc in
        match D.of_string text with
        | Error e -> QCheck2.Test.fail_reportf "parse failed: %s" e
        | Ok sc2 ->
            let text2 = D.to_string sc2 in
            if text = text2 then true
            else
              QCheck2.Test.fail_reportf "not a fixpoint:@.%s@.vs@.%s" text
                text2);
    tc "batch run: 300 cases, zero divergences" (fun () ->
        let r = D.run ~seed:7 ~cases:300 () in
        List.iter
          (fun d -> Alcotest.failf "%a" D.pp_divergence d)
          r.D.divergences;
        check Alcotest.int "cases" 300 r.D.cases;
        check Alcotest.bool "packets compared" true (r.D.packets > 300));
  ]

(* ---- codec fuzz ---- *)

let codec_tests =
  [
    tc "mutation fuzz: 3000 cases, contract holds" (fun () ->
        let r = Check.Codec_fuzz.run ~seed:11 ~cases:3000 in
        List.iter
          (fun f -> Alcotest.failf "%a" Check.Codec_fuzz.pp_failure f)
          r.Check.Codec_fuzz.failures;
        check Alcotest.bool "some decoded" true (r.Check.Codec_fuzz.decoded > 0);
        check Alcotest.bool "some rejected" true
          (r.Check.Codec_fuzz.rejected > 0));
    prop "hex round-trips" ~count:200
      (QCheck2.Gen.string_size (QCheck2.Gen.int_bound 64))
      ~print:String.escaped (fun s ->
        Check.Hex.decode (Check.Hex.encode s) = Ok s);
    tc "hex rejects bad input" (fun () ->
        check Alcotest.bool "odd length" true
          (Result.is_error (Check.Hex.decode "abc"));
        check Alcotest.bool "bad char" true
          (Result.is_error (Check.Hex.decode "zz")));
  ]

(* ---- transparency ---- *)

let transparency_tests =
  [
    prop "hairpin invariant over random port maps" ~count:40 seed_gen
      ~print:string_of_int (fun seed ->
        match Check.Transparency_oracle.check_hairpin ~seed with
        | [] -> true
        | v :: _ ->
            QCheck2.Test.fail_reportf "%a"
              Check.Transparency_oracle.pp_violation v);
    tc "end-to-end transparency under a fault storm" (fun () ->
        match Check.Transparency_oracle.run ~seed:42 ~fault_count:6 () with
        | Error e -> Alcotest.fail e
        | Ok r ->
            List.iter
              (fun v ->
                Alcotest.failf "%a" Check.Transparency_oracle.pp_violation v)
              r.Check.Transparency_oracle.violations;
            check Alcotest.bool "trunk traffic observed" true
              (r.Check.Transparency_oracle.trunk_frames > 0);
            check Alcotest.bool "patch traffic observed" true
              (r.Check.Transparency_oracle.patch_frames > 0);
            check Alcotest.bool "packet-ins inspected" true
              (r.Check.Transparency_oracle.packet_ins > 0);
            check Alcotest.bool "faults actually injected" true
              (r.Check.Transparency_oracle.faults_injected > 0));
    tc "end-to-end transparency, calm network" (fun () ->
        match Check.Transparency_oracle.run ~seed:7 ~fault_count:0 () with
        | Error e -> Alcotest.fail e
        | Ok r ->
            List.iter
              (fun v ->
                Alcotest.failf "%a" Check.Transparency_oracle.pp_violation v)
              r.Check.Transparency_oracle.violations;
            check Alcotest.bool "host traffic observed" true
              (r.Check.Transparency_oracle.host_frames > 0));
  ]

(* ---- the oracle's match witnesses the int field encoding ---- *)

(* Headers drawn from small pools, so that tests hit as often as they
   miss: VID 0, PCP 0, port 0 and protocol 0 included, and frames that
   lack the headers a match tests. *)
let witness_packet_gen =
  let open QCheck2.Gen in
  let ip = Ipv4_addr.of_string in
  let mac = map Mac_addr.make_local (int_bound 2) in
  let addr = oneofl [ ip "10.0.0.1"; ip "10.0.0.2"; ip "192.168.1.200"; ip "0.0.0.0" ] in
  let port = oneofl [ 0; 80; 443 ] in
  let tag = map2 (fun vid pcp -> Vlan.make ~pcp vid) (oneofl [ 0; 1; 101 ]) (oneofl [ 0; 3 ]) in
  let l4 =
    oneof
      [
        map2 (fun sp dp -> Ipv4.Udp (Udp.make ~src_port:sp ~dst_port:dp "u")) port port;
        map2 (fun sp dp -> Ipv4.Tcp (Tcp.make ~src_port:sp ~dst_port:dp "t")) port port;
        return (Ipv4.Icmp (Icmp.echo_request ~id:1 ~seq:2 ()));
        map (fun proto -> Ipv4.Raw (proto, "r")) (oneofl [ 0; 47 ]);
      ]
  in
  let l3 =
    oneof
      [
        map3
          (fun (src, dst) tos l4 -> Packet.Ip (Ipv4.make ~tos ~src ~dst l4))
          (pair addr addr) (oneofl [ 0; 4 ]) l4;
        map3
          (fun sha spa tpa -> Packet.Arp (Arp.request ~sha ~spa ~tpa))
          mac addr addr;
        return (Packet.Raw (Ethertype.Unknown 0x88b5, "raw"));
      ]
  in
  map3
    (fun (dst, src) vlans l3 -> Packet.make ~vlans ~dst ~src l3)
    (pair mac mac) (list_size (int_bound 2) tag) l3

let witness_tests =
  [
    prop "Of_match.matches on Fields agrees with the oracle's packet match"
      ~count:2000
      QCheck2.Gen.(triple Gen.small_match_gen witness_packet_gen (int_bound 1))
      ~print:(fun (m, pkt, in_port) ->
        Format.asprintf "%a on port %d: %a" Openflow.Of_match.pp m in_port
          Packet.pp pkt)
      (fun (m, pkt, in_port) ->
        Openflow.Of_match.matches m ~in_port (Packet.Fields.of_packet pkt)
        = Check.Oracle.matches m ~in_port pkt);
  ]

(* ---- parser totality ---- *)

(* Every parser of text the project writes itself, with well-formed
   inputs to mutate.  A parser is total when it answers (a value, an
   [Error] or [None]) for any string instead of raising. *)
let parsers () =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let ok name f s =
    match f s with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: seed does not parse: %s\n%s" name e s
  in
  let fault_script =
    Simnet.Fault.to_script
      (Simnet.Fault.random_events (Simnet.Rng.create 7)
         ~targets:[ "channel"; "trunk:primary"; "mgmt"; "switch:ss2" ]
         ~n:6 ~horizon:(Simnet.Sim_time.ms 100))
    ^ "\n# comment\n\n90ms  trunk:primary  degrade loss=0.05 jitter=100us\n"
  in
  let config =
    let open Ethswitch.Port_config in
    Mgmt.Device_config.make ~hostname:"sw1"
      [ { port = 0; mode = Access 10; description = Some "host a" };
        { port = 1; mode = Trunk { native = Some 1; allowed = Only [ 10; 20 ] };
          description = Some "uplink" };
        { port = 2; mode = Trunk { native = None; allowed = All }; description = None };
        { port = 3; mode = Disabled; description = None } ]
  in
  let dialects : (module Mgmt.Dialect.S) list =
    [ (module Mgmt.Dialect.Ios); (module Mgmt.Dialect.Eos); (module Mgmt.Dialect.Junos) ]
  in
  let rendered = List.map (fun (module M : Mgmt.Dialect.S) -> M.render config) dialects in
  let json =
    Telemetry.Json.(
      Obj
        [ ("schema", Str "x/1"); ("n", Int (-42)); ("f", Float 1.5e-3); ("b", Bool true);
          ("z", Null); ("a", Arr [ Int 1; Str "q\"\\\n\t"; Obj [] ]) ])
  in
  let postmortem =
    String.concat "\n"
      [ "harmless-postmortem/2"; "scenario chaos"; "seed 42"; "captured 85000000";
        "window 5000000 85000000"; "triggers 1";
        "event 193 10000000 warn fault 0017c56f down channel down"; "events 2";
        "event 10 5214663 debug controller 153e8d2a packet-in dpid:2 port=0";
        "event 193 10000000 warn fault 0017c56f down channel down"; "spans 2";
        "span 28 - 0be9989f 65000000 65429877 930 packet - icmp echo-req";
        "span 29 28 0be9989f 65000000 65000000 0 h0 h0"; "series 1";
        "ts pings_answered_total 2"; "point 63000000 44"; "point 63500000 45.5"; "" ]
  in
  let bench =
    Telemetry.Bench_history.snapshot_to_history_line ~label:"seed"
      { Telemetry.Bench_history.quick = true; label = "";
        rows =
          [ { name = "engine/deliver-in-order"; ns_per_run = Some 89306.6;
              minor_words_per_run = Some 1.7; r_square = Some 0.98; runs = 3 };
            { name = "e2e/ping-harmless"; ns_per_run = None; minor_words_per_run = None;
              r_square = None; runs = 2 } ] }
  in
  let wal =
    let open Mgmt.Txn in
    let log = create () in
    List.iter
      (fun e -> ignore (append log ~txn:"migrate-sw1" e))
      [ Begin "sw1 ports 0-3"; Stage_start "drain"; Note "two hosts moved";
        Stage_done "drain"; Rollback "canary breach: loss 3%"; Rolled_back ];
    ignore (append log ~txn:"migrate-sw2" Committed);
    to_string log
  in
  let repros ~policy = List.map read (corpus_repros ~policy) in
  let parsers =
    [ ("Fault.parse_script", (fun s -> ignore (Simnet.Fault.parse_script s)), [ fault_script ]);
      ("Fault.parse_span", (fun s -> ignore (Simnet.Fault.parse_span s)),
       [ "100us"; "20ms"; "1.5s"; "90ns"; "0ms" ]);
      ("Json.of_string", (fun s -> ignore (Telemetry.Json.of_string s)),
       [ Telemetry.Json.to_string json; Telemetry.Json.to_string_lines (Arr [ json; json ]) ]);
      ("Postmortem.of_string", (fun s -> ignore (Telemetry.Postmortem.of_string s)),
       [ postmortem ]);
      ("Bench_history.snapshot_of_string",
       (fun s -> ignore (Telemetry.Bench_history.snapshot_of_string s)), [ bench ]);
      ("Txn.of_string", (fun s -> ignore (Mgmt.Txn.of_string s)), [ wal ]);
      ("Differential.of_string", (fun s -> ignore (D.of_string s)), repros ~policy:false);
      ("Policy_equiv.of_string", (fun s -> ignore (Check.Policy_equiv.of_string s)),
       repros ~policy:true);
      ("Ipv4_addr.of_string_opt", (fun s -> ignore (Ipv4_addr.of_string_opt s)),
       [ "10.0.0.1"; "255.255.255.255"; "0.0.0.0" ]);
      ("Mac_addr.of_string_opt", (fun s -> ignore (Mac_addr.of_string_opt s)),
       [ "02:00:00:00:00:01"; "ff:ff:ff:ff:ff:ff" ]) ]
    @ List.map
        (fun (module M : Mgmt.Dialect.S) ->
          (M.name ^ ".parse", (fun s -> ignore (M.parse s)), rendered))
        dialects
  in
  (* The seeds themselves are well-formed. *)
  ok "fault" Simnet.Fault.parse_script fault_script;
  ok "postmortem" Telemetry.Postmortem.of_string postmortem;
  ok "bench" Telemetry.Bench_history.snapshot_of_string bench;
  ok "wal" Mgmt.Txn.of_string wal;
  List.iter (fun (module M : Mgmt.Dialect.S) -> ok M.name M.parse (M.render config)) dialects;
  parsers

(* Truncation, byte flips, splices, huge numbers and duplicated lines. *)
let mutate s =
  let open QCheck2.Gen in
  let n = String.length s in
  let at i = if n = 0 then 0 else i mod n in
  oneof
    [ map (fun i -> String.sub s 0 (i mod (n + 1))) nat;
      map2 (fun i c -> if n = 0 then s else String.mapi (fun j x -> if j = at i then c else x) s) nat char;
      map2
        (fun i piece ->
          let i = i mod (n + 1) in
          String.sub s 0 i ^ piece ^ String.sub s i (n - i))
        nat
        (oneofl
           [ "\n"; "\r\n"; " "; "\t"; "#"; "="; ":"; "."; ","; "-"; "\""; "\\"; "{"; "}";
             "["; "]"; "\\u12"; "ms"; "us"; "txn"; "packet "; "span "; "event "; "point ";
             "interface "; "set "; "!"; "\000"; "\255" ]);
      (* the digit run at or after [i], replaced *)
      map2
        (fun i big ->
          let rec digit j = if j >= n then None else if '0' <= s.[j] && s.[j] <= '9' then Some j else digit (j + 1) in
          match digit (at i) with
          | None -> s
          | Some j ->
              let k = ref j in
              while !k < n && '0' <= s.[!k] && s.[!k] <= '9' do incr k done;
              String.sub s 0 j ^ big ^ String.sub s !k (n - !k))
        nat
        (oneofl
           [ "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
             "99999999999999999999999999"; "0x7fffffffffffffff"; "1e308"; "nan"; "-0"; "1_0" ]);
      (* a line, from one LF to the next, said twice *)
      map
        (fun i ->
          match String.index_from_opt s (at i) '\n' with
          | Some a -> (
              match String.index_from_opt s (a + 1) '\n' with
              | Some b -> String.sub s 0 b ^ String.sub s a (n - a)
              | None -> s)
          | None -> s)
        nat ]

let totality_tests =
  [
    tc "every text parser is total under mutation" (fun () ->
        let parsers = Array.of_list (parsers ()) in
        let case seed =
          let rand = Random.State.make [| seed |] in
          let name, parse, seeds = parsers.(seed mod Array.length parsers) in
          let input =
            QCheck2.Gen.(generate1 ~rand (oneofl seeds >>= mutate >>= mutate))
          in
          (name, parse, input)
        in
        let report =
          Check.Fuzz.run ~gen:case ~packets:(fun _ -> 1) ~seed:1 ~cases:10_000
            ~check:(fun (name, parse, input) ->
              match parse input with
              | () -> None
              | exception e -> Some (name, input, Printexc.to_string e))
            ()
        in
        check Alcotest.int "parsed" 10_000 report.Check.Fuzz.packets;
        List.iter
          (fun (name, input, e) -> Alcotest.failf "%s raised %s on %S" name e input)
          report.Check.Fuzz.divergences);
  ]

let suite =
  [
    ("check.corpus", corpus_tests);
    ("check.harness", harness_tests);
    ("check.group-loop", group_loop_tests);
    ("check.differential", diff_tests);
    ("check.oracle-match", witness_tests);
    ("check.codec-fuzz", codec_tests);
    ("check.transparency", transparency_tests);
    ("check.totality", totality_tests);
  ]
