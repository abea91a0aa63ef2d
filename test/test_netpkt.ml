open Netpkt

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let prop name ?(count = 200) gen ~print f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~print gen f)

(* ---- MAC addresses ---- *)

let mac_tests =
  [
    tc "parse/print round-trip" (fun () ->
        let s = "de:ad:be:ef:00:2a" in
        check Alcotest.string "same" s (Mac_addr.to_string (Mac_addr.of_string s)));
    tc "dash separators accepted" (fun () ->
        check Alcotest.string "same" "01:02:03:04:05:06"
          (Mac_addr.to_string (Mac_addr.of_string "01-02-03-04-05-06")));
    tc "bad input rejected" (fun () ->
        check Alcotest.bool "short" true (Mac_addr.of_string_opt "de:ad" = None);
        check Alcotest.bool "junk" true
          (Mac_addr.of_string_opt "zz:zz:zz:zz:zz:zz" = None);
        check Alcotest.bool "bad sep" true
          (Mac_addr.of_string_opt "01020304:05:06aa" = None));
    tc "broadcast is multicast, not unicast" (fun () ->
        check Alcotest.bool "bcast" true (Mac_addr.is_broadcast Mac_addr.broadcast);
        check Alcotest.bool "mcast" true (Mac_addr.is_multicast Mac_addr.broadcast);
        check Alcotest.bool "ucast" false (Mac_addr.is_unicast Mac_addr.broadcast));
    tc "make_local is unicast and distinct" (fun () ->
        let a = Mac_addr.make_local 1 and b = Mac_addr.make_local 2 in
        check Alcotest.bool "unicast" true (Mac_addr.is_unicast a);
        check Alcotest.bool "distinct" false (Mac_addr.equal a b));
    prop "int64 round-trip" Gen.mac_gen ~print:Mac_addr.to_string (fun mac ->
        Mac_addr.equal mac (Mac_addr.of_int64 (Mac_addr.to_int64 mac)));
    prop "string round-trip" Gen.mac_gen ~print:Mac_addr.to_string (fun mac ->
        Mac_addr.equal mac (Mac_addr.of_string (Mac_addr.to_string mac)));
  ]

(* ---- IPv4 addresses and prefixes ---- *)

let ip = Ipv4_addr.of_string

let ipv4_tests =
  [
    tc "parse/print round-trip" (fun () ->
        check Alcotest.string "same" "10.1.2.3" (Ipv4_addr.to_string (ip "10.1.2.3")));
    tc "bad input rejected" (fun () ->
        List.iter
          (fun s ->
            check Alcotest.bool s true (Ipv4_addr.of_string_opt s = None))
          [ "10.0.0"; "256.0.0.1"; "1.2.3.4.5"; "a.b.c.d"; "" ]);
    tc "succ wraps octets" (fun () ->
        check Alcotest.string "carry" "10.0.1.0"
          (Ipv4_addr.to_string (Ipv4_addr.succ (ip "10.0.0.255"))));
    tc "multicast detection" (fun () ->
        check Alcotest.bool "224" true (Ipv4_addr.is_multicast (ip "224.0.0.1"));
        check Alcotest.bool "239" true (Ipv4_addr.is_multicast (ip "239.255.255.255"));
        check Alcotest.bool "10" false (Ipv4_addr.is_multicast (ip "10.0.0.1")));
    tc "prefix membership" (fun () ->
        let p = Ipv4_addr.Prefix.of_string "10.0.0.0/8" in
        check Alcotest.bool "in" true (Ipv4_addr.Prefix.mem (ip "10.255.0.1") p);
        check Alcotest.bool "out" false (Ipv4_addr.Prefix.mem (ip "11.0.0.1") p));
    tc "prefix normalizes host bits" (fun () ->
        let p = Ipv4_addr.Prefix.make (ip "10.1.2.3") 16 in
        check Alcotest.string "base" "10.1.0.0"
          (Ipv4_addr.to_string (Ipv4_addr.Prefix.base p)));
    tc "prefix /0 contains everything" (fun () ->
        let p = Ipv4_addr.Prefix.make Ipv4_addr.any 0 in
        check Alcotest.bool "bcast" true (Ipv4_addr.Prefix.mem Ipv4_addr.broadcast p));
    tc "prefix nth and size" (fun () ->
        let p = Ipv4_addr.Prefix.of_string "192.168.1.0/30" in
        check Alcotest.int "size" 4 (Ipv4_addr.Prefix.size p);
        check Alcotest.string "nth 3" "192.168.1.3"
          (Ipv4_addr.to_string (Ipv4_addr.Prefix.nth p 3));
        check Alcotest.bool "nth 4 rejected" true
          (try ignore (Ipv4_addr.Prefix.nth p 4); false
           with Invalid_argument _ -> true));
    prop "subsumes implies membership"
      (QCheck2.Gen.triple Gen.prefix_gen Gen.prefix_gen Gen.ip_gen)
      ~print:(fun (a, b, x) ->
        Printf.sprintf "%s %s %s"
          (Ipv4_addr.Prefix.to_string a)
          (Ipv4_addr.Prefix.to_string b)
          (Ipv4_addr.to_string x))
      (fun (a, b, x) ->
        (not (Ipv4_addr.Prefix.subsumes a b))
        || (not (Ipv4_addr.Prefix.mem x b))
        || Ipv4_addr.Prefix.mem x a);
    prop "bytes round-trip" Gen.ip_gen ~print:Ipv4_addr.to_string (fun a ->
        Ipv4_addr.equal a (Ipv4_addr.of_bytes (Ipv4_addr.to_bytes a)));
  ]

(* ---- Checksums ---- *)

let checksum_tests =
  [
    tc "rfc1071 example" (fun () ->
        (* 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0x2ddf0 -> fold 0xddf2 -> ~ = 0x220d *)
        let data = "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
        check Alcotest.int "sum" 0x220d (Checksum.checksum data));
    tc "verify accepts correct checksum inline" (fun () ->
        let data = "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7\x22\x0d" in
        check Alcotest.bool "ok" true (Checksum.verify data));
    tc "odd length padded" (fun () ->
        check Alcotest.int "sum" (Checksum.checksum "\xab\xcd\xef")
          (Checksum.checksum "\xab\xcd\xef\x00"));
    prop "verify(data ^ checksum) holds"
      (QCheck2.Gen.map
         (fun chars -> String.init (List.length chars) (List.nth chars))
         (QCheck2.Gen.list_size (QCheck2.Gen.int_range 2 64) QCheck2.Gen.char))
      ~print:String.escaped
      (fun data ->
        (* append the checksum as the final 16-bit word; sum must verify *)
        let c = Checksum.checksum data in
        let padded = if String.length data land 1 = 1 then data ^ "\x00" else data in
        Checksum.verify
          (padded ^ String.init 2 (fun i -> Char.chr ((c lsr ((1 - i) * 8)) land 0xff))));
  ]

(* ---- ARP ---- *)

let arp_tests =
  [
    tc "request/reply round-trip" (fun () ->
        let req =
          Arp.request ~sha:(Mac_addr.make_local 1) ~spa:(ip "10.0.0.1")
            ~tpa:(ip "10.0.0.2")
        in
        let reply = Arp.reply_to req ~sha:(Mac_addr.make_local 2) in
        check Alcotest.bool "req rt" true (Arp.equal req (Arp.decode (Arp.encode req)));
        check Alcotest.bool "rep rt" true
          (Arp.equal reply (Arp.decode (Arp.encode reply)));
        check Alcotest.bool "answers" true
          (Ipv4_addr.equal reply.Arp.tpa req.Arp.spa));
    tc "encoded size is 28" (fun () ->
        let req =
          Arp.request ~sha:Mac_addr.zero ~spa:Ipv4_addr.any ~tpa:Ipv4_addr.any
        in
        check Alcotest.int "size" Arp.size (String.length (Arp.encode req)));
    tc "malformed rejected" (fun () ->
        check Alcotest.bool "truncated" true
          (try ignore (Arp.decode "\x00\x01"); false with Wire.Truncated _ -> true);
        let bad = "\x00\x02" ^ String.make 26 '\x00' in
        check Alcotest.bool "bad htype" true
          (try ignore (Arp.decode bad); false with Wire.Malformed _ -> true));
  ]

(* ---- UDP / TCP / ICMP ---- *)

let src = ip "10.0.0.1"
let dst = ip "10.0.0.2"

let l4_tests =
  [
    tc "udp round-trip" (fun () ->
        let d = Udp.make ~src_port:1234 ~dst_port:80 "hello" in
        check Alcotest.bool "rt" true
          (Udp.equal d (Udp.decode ~src ~dst (Udp.encode ~src ~dst d))));
    tc "udp corrupted checksum rejected" (fun () ->
        let raw = Bytes.of_string (Udp.encode ~src ~dst (Udp.make ~src_port:1 ~dst_port:2 "payload")) in
        Bytes.set raw 9 (Char.chr (Char.code (Bytes.get raw 9) lxor 0xff));
        check Alcotest.bool "rejected" true
          (try ignore (Udp.decode ~src ~dst (Bytes.to_string raw)); false
           with Wire.Malformed _ -> true));
    tc "udp wrong pseudo-header rejected" (fun () ->
        let raw = Udp.encode ~src ~dst (Udp.make ~src_port:1 ~dst_port:2 "payload") in
        check Alcotest.bool "rejected" true
          (try ignore (Udp.decode ~src ~dst:(ip "10.0.0.9") raw); false
           with Wire.Malformed _ -> true));
    tc "udp bad port rejected" (fun () ->
        check Alcotest.bool "neg" true
          (try ignore (Udp.make ~src_port:(-1) ~dst_port:0 ""); false
           with Invalid_argument _ -> true));
    tc "tcp round-trip with flags" (fun () ->
        let seg =
          Tcp.make ~src_port:4321 ~dst_port:443 ~seq:17l ~ack_no:42l
            ~flags:Tcp.syn_ack ~window:1000 "data"
        in
        check Alcotest.bool "rt" true
          (Tcp.equal seg (Tcp.decode ~src ~dst (Tcp.encode ~src ~dst seg))));
    tc "tcp corrupted payload rejected" (fun () ->
        let raw =
          Bytes.of_string (Tcp.encode ~src ~dst (Tcp.make ~src_port:1 ~dst_port:2 "payload"))
        in
        Bytes.set raw (Bytes.length raw - 1) 'X';
        check Alcotest.bool "rejected" true
          (try ignore (Tcp.decode ~src ~dst (Bytes.to_string raw)); false
           with Wire.Malformed _ -> true));
    tc "icmp echo round-trip and reply" (fun () ->
        let req = Icmp.echo_request ~payload:"abc" ~id:7 ~seq:9 () in
        check Alcotest.bool "rt" true
          (Icmp.equal req (Icmp.decode (Icmp.encode req)));
        match Icmp.reply_to req with
        | Some (Icmp.Echo_reply { id = 7; seq = 9; payload = "abc" }) -> ()
        | Some _ | None -> Alcotest.fail "wrong reply");
    tc "icmp unreachable round-trip" (fun () ->
        let m = Icmp.Dest_unreachable { code = 3; context = "ctx" } in
        check Alcotest.bool "rt" true (Icmp.equal m (Icmp.decode (Icmp.encode m))));
    tc "icmp bad checksum rejected" (fun () ->
        let raw = Bytes.of_string (Icmp.encode (Icmp.echo_request ~id:1 ~seq:1 ())) in
        Bytes.set raw 0 '\x0f';
        check Alcotest.bool "rejected" true
          (try ignore (Icmp.decode (Bytes.to_string raw)); false
           with Wire.Malformed _ -> true));
  ]

(* ---- HTTP ---- *)

let http_tests =
  [
    tc "request render/parse round-trip" (fun () ->
        let req =
          Http_lite.get ~headers:[ ("User-Agent", "test") ]
            ~host:"www.example.com" "/index.html"
        in
        match Http_lite.parse_request (Http_lite.render_request req) with
        | Some r ->
            check Alcotest.string "host" "www.example.com" r.Http_lite.host;
            check Alcotest.string "path" "/index.html" r.Http_lite.path;
            check Alcotest.string "ua" "test" (List.assoc "User-Agent" r.Http_lite.headers)
        | None -> Alcotest.fail "did not parse");
    tc "response render/parse round-trip" (fun () ->
        let resp = Http_lite.ok "body text" in
        match Http_lite.parse_response (Http_lite.render_response resp) with
        | Some r ->
            check Alcotest.int "status" 200 r.Http_lite.status;
            check Alcotest.string "body" "body text" r.Http_lite.resp_body
        | None -> Alcotest.fail "did not parse");
    tc "host sniffing" (fun () ->
        let raw = Http_lite.render_request (Http_lite.get ~host:"evil.example" "/") in
        check Alcotest.(option string) "host" (Some "evil.example")
          (Http_lite.host_of_payload raw);
        check Alcotest.(option string) "garbage" None
          (Http_lite.host_of_payload "not http at all"));
    tc "request without Host rejected" (fun () ->
        check Alcotest.bool "no host" true
          (Http_lite.parse_request "GET / HTTP/1.1\r\n\r\n" = None));
    tc "incomplete request rejected" (fun () ->
        check Alcotest.bool "no blank line" true
          (Http_lite.parse_request "GET / HTTP/1.1\r\nHost: x\r\n" = None));
    tc "split_head_body finds the first blank line" (fun () ->
        let split = Alcotest.(option (pair string string)) in
        check split "at offset 0" (Some ("", "body")) (Http_lite.split_head_body "\r\n\r\nbody");
        check split "at the very end" (Some ("HTTP/1.1 200 OK", ""))
          (Http_lite.split_head_body "HTTP/1.1 200 OK\r\n\r\n");
        check split "first of two" (Some ("a", "b\r\n\r\nc"))
          (Http_lite.split_head_body "a\r\n\r\nb\r\n\r\nc");
        check split "missing" None (Http_lite.split_head_body "HTTP/1.1 200 OK\r\n");
        check split "too short" None (Http_lite.split_head_body "\r\n\r");
        check split "bare LF LF" None (Http_lite.split_head_body "HTTP/1.1 200 OK\n\nbody");
        check Alcotest.bool "bare LF LF response rejected" true
          (Http_lite.parse_response "HTTP/1.1 200 OK\n\nbody" = None));
    prop "split_head_body agrees with a substring scan"
      QCheck2.Gen.(string_size ~gen:(oneofl [ '\r'; '\n'; 'a' ]) (int_bound 12))
      ~print:String.escaped
      (fun s ->
        let marker = "\r\n\r\n" in
        let rec find i =
          if i + 4 > String.length s then None
          else if String.sub s i 4 = marker then Some i
          else find (i + 1)
        in
        let reference =
          Option.map
            (fun i -> (String.sub s 0 i, String.sub s (i + 4) (String.length s - i - 4)))
            (find 0)
        in
        Http_lite.split_head_body s = reference);
    tc "parsing a 40-byte response allocates at most 83 words" (fun () ->
        (* the head and body substrings, the split lines, the status
           line's words and the record.  Scanning for the blank line
           allocates nothing; with a String.sub per offset this parse
           took 145 words. *)
        let raw = "HTTP/1.1 200 OK\r\nServer: sim\r\n\r\nhello, w" in
        check Alcotest.int "40 bytes" 40 (String.length raw);
        (match Http_lite.parse_response raw with
        | Some r -> check Alcotest.string "body" "hello, w" r.Http_lite.resp_body
        | None -> Alcotest.fail "did not parse");
        let before = Gc.minor_words () in
        for _ = 1 to 1_000 do
          ignore (Sys.opaque_identity (Http_lite.parse_response raw))
        done;
        let words = int_of_float (Gc.minor_words () -. before) / 1_000 in
        if words > 83 then
          Alcotest.failf "%d minor words per parse (bound 83)" words);
  ]

(* ---- Frames ---- *)

let packet_tests =
  [
    prop "encode/decode round-trip" Gen.packet_gen ~print:Gen.packet_print
      (fun pkt -> Packet.equal pkt (Packet.decode (Packet.encode pkt)));
    prop "push then pop restores" (QCheck2.Gen.pair Gen.packet_gen Gen.vlan_gen)
      ~print:(fun (pkt, _) -> Gen.packet_print pkt)
      (fun (pkt, tag) ->
        match Packet.pop_vlan (Packet.push_vlan tag pkt) with
        | Some (tag', rest) -> Vlan.equal tag tag' && Packet.equal rest pkt
        | None -> false);
    prop "wire size >= 64" Gen.packet_gen ~print:Gen.packet_print (fun pkt ->
        Packet.wire_size pkt >= 64);
    prop "pad_to reaches target" Gen.packet_gen ~print:Gen.packet_print
      (fun pkt ->
        let padded = Packet.pad_to 200 pkt in
        match pkt.Packet.l3 with
        | Packet.Ip { Ipv4.payload = Ipv4.Udp _ | Ipv4.Tcp _; _ } ->
            Packet.wire_size padded >= 200
        | _ -> true);
    tc "outer vid and set_outer_vid" (fun () ->
        let pkt =
          Packet.udp ~vlans:[ Vlan.make 101 ] ~dst:(Mac_addr.make_local 1)
            ~src:(Mac_addr.make_local 2) ~ip_src:src ~ip_dst:dst ~src_port:1
            ~dst_port:2 "x"
        in
        check Alcotest.(option int) "vid" (Some 101) (Packet.outer_vid pkt);
        check Alcotest.(option int) "set" (Some 999)
          (Packet.outer_vid (Packet.set_outer_vid 999 pkt)));
    tc "set_outer_vid on untagged rejected" (fun () ->
        let pkt =
          Packet.udp ~dst:(Mac_addr.make_local 1) ~src:(Mac_addr.make_local 2)
            ~ip_src:src ~ip_dst:dst ~src_port:1 ~dst_port:2 "x"
        in
        check Alcotest.bool "raises" true
          (try ignore (Packet.set_outer_vid 5 pkt); false
           with Invalid_argument _ -> true));
    tc "fields extraction for tcp" (fun () ->
        let pkt =
          Packet.tcp ~vlans:[ Vlan.make ~pcp:3 7 ] ~dst:(Mac_addr.make_local 1)
            ~src:(Mac_addr.make_local 2) ~ip_src:src ~ip_dst:dst ~src_port:1111
            ~dst_port:80 "x"
        in
        let f = Packet.Fields.of_packet pkt in
        check Alcotest.int "ethertype" 0x0800 f.Packet.Fields.eth_type;
        check Alcotest.int "vid" 7 f.Packet.Fields.vlan_vid;
        check Alcotest.int "pcp" 3 f.Packet.Fields.vlan_pcp;
        check Alcotest.int "proto" 6 f.Packet.Fields.ip_proto;
        check Alcotest.int "sport" 1111 f.Packet.Fields.l4_src;
        check Alcotest.int "dport" 80 f.Packet.Fields.l4_dst);
    tc "fields of a tagged udp frame allocate exactly 12 words" (fun () ->
        let pkt =
          Packet.udp ~vlans:[ Vlan.make ~pcp:3 7 ] ~dst:(Mac_addr.make_local 1)
            ~src:(Mac_addr.make_local 2) ~ip_src:src ~ip_dst:dst ~src_port:1111
            ~dst_port:80 "x"
        in
        ignore (Sys.opaque_identity (Packet.Fields.of_packet pkt));
        let before = Gc.minor_words () in
        for _ = 1 to 1_000 do
          ignore (Sys.opaque_identity (Packet.Fields.of_packet pkt))
        done;
        check Alcotest.int "minor words per call" 12
          (int_of_float (Gc.minor_words () -. before) / 1_000));
    tc "fields extraction for arp has no ip fields" (fun () ->
        let pkt =
          Packet.arp_request ~src_mac:(Mac_addr.make_local 2) ~src_ip:src
            ~target_ip:dst
        in
        let f = Packet.Fields.of_packet pkt in
        check Alcotest.int "ethertype" 0x0806 f.Packet.Fields.eth_type;
        check Alcotest.bool "no ip" true (f.Packet.Fields.ip_src = Packet.Fields.absent));
    tc "decode truncated frame fails" (fun () ->
        check Alcotest.bool "truncated" true
          (try ignore (Packet.decode "\x01\x02\x03"); false
           with Wire.Truncated _ -> true));
    tc "ipv4 ttl decrement" (fun () ->
        let hdr = Ipv4.make ~ttl:2 ~src ~dst (Ipv4.Udp (Udp.make ~src_port:1 ~dst_port:2 "")) in
        match Ipv4.decrement_ttl hdr with
        | Some h ->
            check Alcotest.int "ttl" 1 h.Ipv4.ttl;
            check Alcotest.bool "dies" true (Ipv4.decrement_ttl h = None)
        | None -> Alcotest.fail "should survive");
  ]

(* ---- Flow identity ---- *)

let flow_tests =
  [
    prop "flow_hash equals Flow_key.hash of flow_key" Gen.packet_gen
      ~print:Gen.packet_print (fun pkt ->
        let key = Packet.flow_key pkt in
        Packet.flow_hash ~seed:0 pkt = Packet.Flow_key.hash key
        && Packet.flow_hash ~seed:7 pkt = Packet.Flow_key.hash ~seed:7 key
        && Packet.flow_hash ~seed:0 pkt >= 0);
    prop "flow identity survives encode/decode" Gen.packet_gen
      ~print:Gen.packet_print (fun pkt ->
        let pkt' = Packet.decode (Packet.encode pkt) in
        Packet.Flow_key.equal (Packet.flow_key pkt) (Packet.flow_key pkt')
        && Packet.flow_hash ~seed:0 pkt = Packet.flow_hash ~seed:0 pkt');
    prop "vlan push and pop never change the flow"
      (QCheck2.Gen.pair Gen.packet_gen Gen.vlan_gen)
      ~print:(fun (pkt, _) -> Gen.packet_print pkt)
      (fun (pkt, tag) ->
        Packet.Flow_key.equal (Packet.flow_key pkt)
          (Packet.flow_key (Packet.push_vlan tag pkt)));
    prop "equal keys agree with compare and hash equal"
      (QCheck2.Gen.pair Gen.packet_gen Gen.packet_gen)
      ~print:(fun (a, _) -> Gen.packet_print a)
      (fun (a, b) ->
        let ka = Packet.flow_key a and kb = Packet.flow_key b in
        Packet.Flow_key.equal ka kb = (Packet.Flow_key.compare ka kb = 0)
        && ((not (Packet.Flow_key.equal ka kb))
           || Packet.Flow_key.hash ka = Packet.Flow_key.hash kb));
    tc "to_string names the protocol and endpoints" (fun () ->
        let udp =
          Packet.udp ~dst:(Mac_addr.make_local 1) ~src:(Mac_addr.make_local 2)
            ~ip_src:src ~ip_dst:dst ~src_port:4242 ~dst_port:80 "x"
        in
        check Alcotest.string "udp" "udp 10.0.0.1:4242>10.0.0.2:80"
          (Packet.Flow_key.to_string (Packet.flow_key udp));
        let tcp =
          Packet.tcp ~dst:(Mac_addr.make_local 1) ~src:(Mac_addr.make_local 2)
            ~ip_src:src ~ip_dst:dst ~src_port:1 ~dst_port:443 "x"
        in
        check Alcotest.string "tcp" "tcp 10.0.0.1:1>10.0.0.2:443"
          (Packet.Flow_key.to_string (Packet.flow_key tcp)));
    tc "non-IP frames key on the ethertype alone" (fun () ->
        let arp =
          Packet.arp_request ~src_mac:(Mac_addr.make_local 2) ~src_ip:src
            ~target_ip:dst
        in
        let k = Packet.flow_key arp in
        check Alcotest.int "ethertype" 0x0806 k.Packet.Flow_key.fk_ety;
        check Alcotest.int "no protocol" (-1) k.Packet.Flow_key.fk_proto;
        check Alcotest.bool "any src" true
          (Ipv4_addr.equal k.Packet.Flow_key.fk_src Ipv4_addr.any);
        check Alcotest.int "no sport" 0 k.Packet.Flow_key.fk_sport;
        check Alcotest.string "rendered" "ety:0x0806"
          (Packet.Flow_key.to_string k));
  ]

let suite =
  [
    ("netpkt.mac", mac_tests);
    ("netpkt.ipv4", ipv4_tests);
    ("netpkt.checksum", checksum_tests);
    ("netpkt.arp", arp_tests);
    ("netpkt.l4", l4_tests);
    ("netpkt.http", http_tests);
    ("netpkt.packet", packet_tests);
    ("netpkt.flow", flow_tests);
  ]
