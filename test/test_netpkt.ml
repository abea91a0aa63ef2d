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

(* The reference spec: the split-list parsers [Http_lite] had before it
   worked on indexes, with the blank line found by a substring scan.  The
   lean parsers must return exactly what these return, on any input. *)
module Http_ref = struct
  open Http_lite

  let split_head_body s =
    let rec find i =
      if i + 4 > String.length s then None
      else if String.sub s i 4 = "\r\n\r\n" then Some i
      else find (i + 1)
    in
    Option.map
      (fun i -> (String.sub s 0 i, String.sub s (i + 4) (String.length s - i - 4)))
      (find 0)

  let parse_header_line line =
    match String.index_opt line ':' with
    | None -> None
    | Some i ->
        let key = String.sub line 0 i in
        let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
        Some (key, value)

  let split_lines head =
    String.split_on_char '\n' head
    |> List.map (fun l ->
           if String.length l > 0 && l.[String.length l - 1] = '\r' then
             String.sub l 0 (String.length l - 1)
           else l)

  let parse_request s =
    match split_head_body s with
    | None -> None
    | Some (head, body) -> (
        match split_lines head with
        | [] -> None
        | request_line :: header_lines -> (
            match String.split_on_char ' ' request_line with
            | [ meth; path; version ] when version = "HTTP/1.1" || version = "HTTP/1.0" -> (
                let headers = List.filter_map parse_header_line header_lines in
                let host, others =
                  List.partition (fun (k, _) -> String.lowercase_ascii k = "host") headers
                in
                match host with
                | (_, h) :: _ -> Some { meth; path; host = h; headers = others; body }
                | [] -> None)
            | _ -> None))

  let parse_response s =
    match split_head_body s with
    | None -> None
    | Some (head, resp_body) -> (
        match split_lines head with
        | [] -> None
        | status_line :: header_lines -> (
            match String.split_on_char ' ' status_line with
            | version :: code :: reason_words
              when version = "HTTP/1.1" || version = "HTTP/1.0" -> (
                match int_of_string_opt code with
                | Some status ->
                    Some
                      {
                        status;
                        reason = String.concat " " reason_words;
                        resp_headers = List.filter_map parse_header_line header_lines;
                        resp_body;
                      }
                | None -> None)
            | _ -> None))

  let render_headers headers =
    String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)

  let render_request r =
    Printf.sprintf "%s %s HTTP/1.1\r\nHost: %s\r\n%s\r\n%s" r.meth r.path r.host
      (render_headers r.headers) r.body

  let render_response r =
    Printf.sprintf "HTTP/1.1 %d %s\r\n%s\r\n%s" r.status r.reason
      (render_headers r.resp_headers) r.resp_body
end

(* HTTP-like payloads: a start line, header lines and a body built from
   pieces near the edges of the grammar, then mutated. *)
module Http_gen = struct
  open QCheck2.Gen

  let word = string_size ~gen:(oneofl [ 'a'; 'Z'; '/'; '.'; '-'; '0'; '9' ]) (int_bound 6)

  (* mostly words, sometimes the separators the parser cares about *)
  let field =
    frequency
      [ (6, word);
        (1, oneofl [ ""; " "; "  "; ":"; "\r"; "\t"; " \t"; "\012"; "a b"; "x:y" ]) ]

  let version = oneofl [ "HTTP/1.1"; "HTTP/1.0"; "HTTP/1.2"; "http/1.1"; "HTTP/1.1 "; "" ]

  let status_token =
    frequency
      [ (4, map string_of_int (int_range (-999) 999));
        (3, oneofl
              [ "200"; "404"; "0x1F"; "+200"; "2_00"; "-5"; "0b101"; "0o17"; "0200";
                ""; "abc"; "99999999999999999999"; "9999999999999999999"; "999999999999999999";
                "4611686018427387903"; "4611686018427387904"; "-4611686018427387904" ]) ]

  let host_key = oneofl [ "Host"; "host"; "HOST"; "hOsT"; "Host "; " Host"; "Hos"; "Hostt" ]
  let eol = frequency [ (6, return "\r\n"); (1, return "\n"); (1, return "\r\r\n") ]

  let header_line =
    frequency
      [ (3, map3 (fun k sp v -> k ^ ":" ^ sp ^ v) field (oneofl [ ""; " "; "  "; "\t" ]) field);
        (2, map2 (fun k v -> k ^ ": " ^ v) host_key field);
        (1, field) (* usually no ':' *);
        (1, oneofl [ ":"; "a:"; ":b"; "" ]) ]

  let start_line =
    oneof
      [ map3 (fun m p v -> m ^ " " ^ p ^ " " ^ v) (oneofl [ "GET"; "POST"; "" ]) field version;
        map3 (fun v c r -> v ^ " " ^ c ^ " " ^ r) version status_token field;
        map2 (fun v c -> v ^ " " ^ c) version status_token;
        field ]

  let message =
    map4
      (fun start lines blank body ->
        let buf = Buffer.create 64 in
        Buffer.add_string buf start;
        List.iter (fun (eol, l) -> Buffer.add_string buf eol; Buffer.add_string buf l) lines;
        Buffer.add_string buf blank;
        Buffer.add_string buf body;
        Buffer.contents buf)
      start_line
      (list_size (int_bound 5) (pair eol header_line))
      (frequency [ (8, return "\r\n\r\n"); (1, return "\n\n"); (1, return "\r\n") ])
      (frequency [ (3, return ""); (2, word); (1, return "a\r\n\r\nb") ])

  let rendered_request =
    map4
      (fun meth path host headers ->
        Http_ref.render_request { (Http_lite.get ~headers ~host path) with Http_lite.meth })
      (oneofl [ "GET"; "HEAD"; "" ]) field field
      (list_size (int_bound 3) (pair (oneof [ field; host_key ]) field))

  let rendered_response =
    map3
      (fun status reason headers ->
        Http_ref.render_response
          { Http_lite.status; reason; resp_headers = headers; resp_body = "body" })
      (oneof [ int_range (-1000) 1000; oneofl [ min_int; max_int; 0 ] ])
      field
      (list_size (int_bound 3) (pair (oneof [ field; host_key ]) field))

  (* truncation, byte flips, splices and duplicated lines *)
  let mutate s =
    let n = String.length s in
    oneof
      [ return s;
        map (fun i -> String.sub s 0 i) (int_bound n);
        map2
          (fun i c -> if n = 0 then s else String.mapi (fun j x -> if j = i mod n then c else x) s)
          nat
          (oneofl [ ' '; ':'; '\r'; '\n'; 'H'; 'h'; '0'; 'x'; '_'; '+'; '\t' ]);
        map2
          (fun i piece ->
            let i = if n = 0 then 0 else i mod (n + 1) in
            String.sub s 0 i ^ piece ^ String.sub s i (n - i))
          nat
          (oneofl
             [ "\r\nHost: a\r\n"; "\r\nhOsT:b"; "\r\nHOST : c"; "\r\nno colon"; "\n"; "\r";
               "  "; " "; "\r\n\r\n"; "HTTP/1.0"; " 0x1F "; "+200"; "2_00"; ":" ]);
        (* a line, from one LF to the next, said twice *)
        map
          (fun i ->
            match String.index_from_opt s (if n = 0 then 0 else i mod n) '\n' with
            | Some a -> (
                match String.index_from_opt s (a + 1) '\n' with
                | Some b -> String.sub s 0 b ^ String.sub s a (n - a)
                | None -> s)
            | None -> s)
          nat ]

  let payload =
    let* s = oneof [ message; rendered_request; rendered_response ] in
    let* s = mutate s in
    mutate s
end

let http_alloc name ~bound f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    ignore (Sys.opaque_identity (f ()))
  done;
  let words = int_of_float (Gc.minor_words () -. before) / 1_000 in
  if words > bound then Alcotest.failf "%s: %d minor words per call (bound %d)" name words bound

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
    tc "the first CRLF CRLF ends the head" (fun () ->
        let body s = Option.map (fun r -> r.Http_lite.resp_body) (Http_lite.parse_response s) in
        let check_body = check Alcotest.(option string) in
        check_body "at the very end" (Some "") (body "HTTP/1.1 200 OK\r\n\r\n");
        check_body "first of two" (Some "b\r\n\r\nc") (body "HTTP/1.1 200 OK\r\n\r\nb\r\n\r\nc");
        check_body "missing" None (body "HTTP/1.1 200 OK\r\n");
        check_body "too short" None (body "\r\n\r");
        check_body "bare LF LF" None (body "HTTP/1.1 200 OK\n\nbody");
        check Alcotest.bool "empty head" true (Http_lite.parse_request "\r\n\r\nbody" = None));
    prop "body after the first CRLF CRLF agrees with a substring scan"
      QCheck2.Gen.(string_size ~gen:(oneofl [ '\r'; '\n'; 'a' ]) (int_bound 12))
      ~print:String.escaped
      (fun s ->
        let s = "HTTP/1.1 200 OK" ^ s in
        Option.map (fun r -> r.Http_lite.resp_body) (Http_lite.parse_response s)
        = Option.map snd (Http_ref.split_head_body s));
    tc "the parsers' edge cases" (fun () ->
        let status s =
          Option.map (fun r -> r.Http_lite.status)
            (Http_lite.parse_response ("HTTP/1.0 " ^ s ^ " X\r\n\r\n"))
        in
        List.iter
          (fun (tok, want) -> check Alcotest.(option int) tok want (status tok))
          [ ("200", Some 200); ("0x1F", Some 31); ("+200", Some 200); ("2_00", Some 200);
            ("-5", Some (-5)); ("0200", Some 200); ("", None); ("2x", None);
            ("999999999999999999", Some 999999999999999999);
            ("9999999999999999999", None); ("99999999999999999999", None) ];
        let req =
          Http_lite.parse_request
            "GET /a HTTP/1.0\nhOsT:\t first \r\nX: 1\r\nno colon\r\nHOST: second\r\nY : 2\r\n\r\nbody"
        in
        check Alcotest.bool "LF-only lines, mixed-case Host, first wins" true
          (req
          = Some
              { Http_lite.meth = "GET"; path = "/a"; host = "first";
                headers = [ ("X", "1"); ("Y ", "2") ]; body = "body" });
        check Alcotest.bool "double space" true
          (Http_lite.parse_request "GET  / HTTP/1.1\r\nHost: x\r\n\r\n" = None);
        check Alcotest.(option string) "reason is the rest of the line" (Some "Not  Found ")
          (Option.map (fun r -> r.Http_lite.reason)
             (Http_lite.parse_response "HTTP/1.1 404 Not  Found \r\n\r\n")));
    prop "parsers agree with the split-list reference" ~count:2000 Http_gen.payload
      ~print:String.escaped (fun s ->
        (* an exception here fails the property: the parsers never raise *)
        let req = Http_lite.parse_request s in
        req = Http_ref.parse_request s
        && Http_lite.parse_response s = Http_ref.parse_response s
        && Http_lite.host_of_payload s = Option.map (fun r -> r.Http_lite.host) req);
    prop "render agrees with Printf" ~count:500
      QCheck2.Gen.(
        pair
          (pair Http_gen.field Http_gen.field)
          (pair
             (oneof [ int; int_range (-1000) 1000; oneofl [ min_int; max_int; 0; -1 ] ])
             (list_size (int_bound 3) (pair Http_gen.field Http_gen.field))))
      ~print:(fun ((a, b), (n, _)) -> Printf.sprintf "%S %S %d" a b n)
      (fun ((a, b), (status, headers)) ->
        let req = { (Http_lite.get ~headers ~host:b a) with Http_lite.body = b } in
        let resp = { Http_lite.status; reason = a; resp_headers = headers; resp_body = b } in
        Http_lite.render_request req = Http_ref.render_request req
        && Http_lite.render_response resp = Http_ref.render_response resp);
    tc "parsing a 40-byte response allocates at most 22 words" (fun () ->
        (* the record and its [Some], the reason, the one header's pair,
           list cell and strings, and the body: nothing for the scan
           itself.  With split lists and a substring per line this parse
           took 52 words (83 allowed), and 145 with a String.sub per
           offset. *)
        let raw = "HTTP/1.1 200 OK\r\nServer: sim\r\n\r\nhello, w" in
        check Alcotest.int "40 bytes" 40 (String.length raw);
        (match Http_lite.parse_response raw with
        | Some r -> check Alcotest.string "body" "hello, w" r.Http_lite.resp_body
        | None -> Alcotest.fail "did not parse");
        http_alloc "parse_response" ~bound:22 (fun () -> Http_lite.parse_response raw));
    tc "rendering a request allocates one string" (fun () ->
        (* 51 bytes: 8 words.  Printf and a mapped header list took 131. *)
        let req = Http_lite.get ~host:"www.example.com" "/index.html" in
        check Alcotest.int "51 bytes" 51 (String.length (Http_lite.render_request req));
        http_alloc "render_request" ~bound:8 (fun () -> Http_lite.render_request req));
    tc "parsing a request allocates only what it returns" (fun () ->
        (* 27 words: the record and its [Some], method, path, host, and
           the one other header's cell, pair and strings; the empty body
           is the shared [""].  Split lists, [List.partition] and
           [String.lowercase_ascii] took 103. *)
        let raw =
          Http_lite.render_request
            (Http_lite.get ~headers:[ ("User-Agent", "test") ] ~host:"www.example.com" "/index.html")
        in
        http_alloc "parse_request" ~bound:27 (fun () -> Http_lite.parse_request raw));
    tc "sniffing the Host allocates only the value" (fun () ->
        (* 5 words: the value and its [Some].  Through [parse_request]
           it took 105. *)
        let raw = Http_lite.render_request (Http_lite.get ~host:"www.example.com" "/index.html") in
        http_alloc "host_of_payload" ~bound:5 (fun () -> Http_lite.host_of_payload raw));
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
