type request = {
  meth : string;
  path : string;
  host : string;
  headers : (string * string) list;
  body : string;
}

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

let get ?(headers = []) ~host path = { meth = "GET"; path; host; headers; body = "" }

let ok ?(headers = []) body =
  { status = 200; reason = "OK"; resp_headers = headers; resp_body = body }

(* ---- rendering: one Bytes of exactly the rendered length ---- *)

let rec headers_length acc = function
  | [] -> acc
  | (k, v) :: rest -> headers_length (acc + String.length k + String.length v + 4) rest

let put b pos s =
  Bytes.unsafe_blit_string s 0 b pos (String.length s);
  pos + String.length s

let rec put_headers b pos = function
  | [] -> pos
  | (k, v) :: rest ->
      let pos = put b pos k in
      let pos = put b pos ": " in
      let pos = put b pos v in
      put_headers b (put b pos "\r\n") rest

(* The length of [string_of_int n]: digits are counted on the
   non-positive side so that [min_int] does not overflow. *)
let int_length n =
  let rec digits m acc = if m > -10 then acc else digits (m / 10) (acc + 1) in
  if n < 0 then 1 + digits n 1 else digits (-n) 1

(* Write the digits of [-m] (for [m <= 0]) into [b], the last at [i];
   the index before the first. *)
let rec put_digits b m i =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 - (m mod 10)));
  if m <= -10 then put_digits b (m / 10) (i - 1) else i - 1

(* Write [string_of_int n] into [b], ending just before [stop]. *)
let put_int b stop n =
  let i = put_digits b (if n < 0 then n else -n) (stop - 1) in
  if n < 0 then Bytes.unsafe_set b i '-';
  stop

(* "<meth> <path> HTTP/1.1\r\nHost: <host>\r\n<headers>\r\n<body>" *)
let render_request r =
  let len =
    String.length r.meth + String.length r.path + String.length r.host
    + String.length r.body
    + headers_length 22 r.headers
  in
  let b = Bytes.create len in
  let p = put b 0 r.meth in
  let p = put b p " " in
  let p = put b p r.path in
  let p = put b p " HTTP/1.1\r\nHost: " in
  let p = put b p r.host in
  let p = put b p "\r\n" in
  let p = put_headers b p r.headers in
  let p = put b p "\r\n" in
  ignore (put b p r.body);
  Bytes.unsafe_to_string b

(* "HTTP/1.1 <status> <reason>\r\n<headers>\r\n<body>" *)
let render_response r =
  let len =
    int_length r.status + String.length r.reason + String.length r.resp_body
    + headers_length 14 r.resp_headers
  in
  let b = Bytes.create len in
  let p = put b 0 "HTTP/1.1 " in
  let p = put_int b (p + int_length r.status) r.status in
  let p = put b p " " in
  let p = put b p r.reason in
  let p = put b p "\r\n" in
  let p = put_headers b p r.resp_headers in
  let p = put b p "\r\n" in
  ignore (put b p r.resp_body);
  Bytes.unsafe_to_string b

(* ---- parsing: indexes into the payload ---- *)

(* The index of the first blank line (CRLF CRLF) at or after [i], or -1. *)
let rec head_end s i =
  if i + 4 > String.length s then -1
  else if
    String.unsafe_get s i = '\r'
    && String.unsafe_get s (i + 1) = '\n'
    && String.unsafe_get s (i + 2) = '\r'
    && String.unsafe_get s (i + 3) = '\n'
  then i
  else head_end s (i + 1)

(* The head's lines are the segments between LFs, each without one
   trailing CR.  [eol s p stop] is the LF ending the line at [p], or
   [stop]; [chomp] is that line's end once the CR is dropped. *)
let rec eol s p stop = if p >= stop || String.unsafe_get s p = '\n' then p else eol s (p + 1) stop
let chomp s p e = if e > p && String.unsafe_get s (e - 1) = '\r' then e - 1 else e

(* The first [c] in [p, stop), or [stop]. *)
let rec index s c p stop =
  if p >= stop || String.unsafe_get s p = c then p else index s c (p + 1) stop

let is_version s p e =
  e - p = 8
  && String.unsafe_get s p = 'H'
  && String.unsafe_get s (p + 1) = 'T'
  && String.unsafe_get s (p + 2) = 'T'
  && String.unsafe_get s (p + 3) = 'P'
  && String.unsafe_get s (p + 4) = '/'
  && String.unsafe_get s (p + 5) = '1'
  && String.unsafe_get s (p + 6) = '.'
  && (String.unsafe_get s (p + 7) = '1' || String.unsafe_get s (p + 7) = '0')

(* [String.sub], without a fresh block for an empty result. *)
let sub s p len = if len = 0 then "" else String.sub s p len

(* [String.trim]'s whitespace. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec skip_left s p e =
  if p < e && is_space (String.unsafe_get s p) then skip_left s (p + 1) e else p

let rec skip_right s p e =
  if e > p && is_space (String.unsafe_get s (e - 1)) then skip_right s p (e - 1) else e

(* [String.trim (String.sub s p (e - p))] *)
let trimmed s p e =
  let p = skip_left s p e in
  sub s p (skip_right s p e - p)

let is_host s p c =
  c - p = 4
  && Char.lowercase_ascii (String.unsafe_get s p) = 'h'
  && Char.lowercase_ascii (String.unsafe_get s (p + 1)) = 'o'
  && Char.lowercase_ascii (String.unsafe_get s (p + 2)) = 's'
  && Char.lowercase_ascii (String.unsafe_get s (p + 3)) = 't'

(* The header lines from [p] to [stop], in order: lines without ':' are
   skipped, and so are [Host] lines when [skip_host]. *)
let rec headers ~skip_host s p stop =
  if p >= stop then []
  else
    let nl = eol s p stop in
    let e = chomp s p nl in
    let c = index s ':' p e in
    if c = e || (skip_host && is_host s p c) then headers ~skip_host s (nl + 1) stop
    else
      let h = (sub s p (c - p), trimmed s (c + 1) e) in
      h :: headers ~skip_host s (nl + 1) stop

(* The start of the first [Host] line from [p] to [stop], or -1. *)
let rec host_line s p stop =
  if p >= stop then -1
  else
    let nl = eol s p stop in
    let e = chomp s p nl in
    let c = index s ':' p e in
    if c < e && is_host s p c then p else host_line s (nl + 1) stop

(* The value of the header line at [p]. *)
let value s p stop =
  let e = chomp s p (eol s p stop) in
  trimmed s (index s ':' p e + 1) e

(* The request line ends at [stop]: the second space if it holds exactly
   three space-separated tokens with a known version, else -1. *)
let request_line s stop =
  let e = chomp s 0 stop in
  let a = index s ' ' 0 e in
  let b = index s ' ' (a + 1) e in
  if b < e && is_version s (b + 1) e then b else -1

let parse_request s =
  let stop = head_end s 0 in
  if stop < 0 then None
  else
    let nl = eol s 0 stop in
    let b = request_line s nl in
    if b < 0 then None
    else
      let h = host_line s (nl + 1) stop in
      if h < 0 then None
      else
        let a = index s ' ' 0 b in
        Some
          {
            meth = sub s 0 a;
            path = sub s (a + 1) (b - a - 1);
            host = value s h stop;
            headers = headers ~skip_host:true s (nl + 1) stop;
            body = sub s (stop + 4) (String.length s - stop - 4);
          }

let host_of_payload s =
  let stop = head_end s 0 in
  if stop < 0 then None
  else
    let nl = eol s 0 stop in
    if request_line s nl < 0 then None
    else
      let h = host_line s (nl + 1) stop in
      if h < 0 then None else Some (value s h stop)

(* [p, e) read as a short run of decimal digits, or -1 for anything
   else (signs, [_], [0x] prefixes, possible overflow), which then goes
   through [int_of_string_opt] itself. *)
let rec decimal s i e acc =
  if i = e then acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as d -> decimal s (i + 1) e ((acc * 10) + Char.code d - 48)
    | _ -> -1

let response s ~line_end ~reason_at ~stop status =
  Some
    {
      status;
      reason =
        (if reason_at < line_end then sub s (reason_at + 1) (line_end - reason_at - 1) else "");
      resp_headers = headers ~skip_host:false s (eol s 0 stop + 1) stop;
      resp_body = sub s (stop + 4) (String.length s - stop - 4);
    }

let parse_response s =
  let stop = head_end s 0 in
  if stop < 0 then None
  else
    let e = chomp s 0 (eol s 0 stop) in
    let a = index s ' ' 0 e in
    if a = e || not (is_version s 0 a) then None
    else
      let b = index s ' ' (a + 1) e in
      let code = if b > a + 1 && b - a - 1 <= 18 then decimal s (a + 1) b 0 else -1 in
      if code >= 0 then response s ~line_end:e ~reason_at:b ~stop code
      else
        match int_of_string_opt (String.sub s (a + 1) (b - a - 1)) with
        | Some status -> response s ~line_end:e ~reason_at:b ~stop status
        | None -> None
