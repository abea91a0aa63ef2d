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

let crlf = "\r\n"

let render_headers headers =
  String.concat ""
    (List.map (fun (k, v) -> Printf.sprintf "%s: %s%s" k v crlf) headers)

let render_request r =
  Printf.sprintf "%s %s HTTP/1.1%sHost: %s%s%s%s%s" r.meth r.path crlf r.host
    crlf (render_headers r.headers) crlf r.body

let render_response r =
  Printf.sprintf "HTTP/1.1 %d %s%s%s%s%s" r.status r.reason crlf
    (render_headers r.resp_headers) crlf r.resp_body

(* The first blank line (CRLF CRLF), found by comparing chars in place. *)
let split_head_body s =
  let n = String.length s in
  let rec find i =
    if i + 4 > n then -1
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then i
    else find (i + 1)
  in
  let i = find 0 in
  if i < 0 then None else Some (String.sub s 0 i, String.sub s (i + 4) (n - i - 4))

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
          | [ meth; path; version ] when version = "HTTP/1.1" || version = "HTTP/1.0" ->
              let headers = List.filter_map parse_header_line header_lines in
              let host, others =
                List.partition (fun (k, _) -> String.lowercase_ascii k = "host") headers
              in
              (match host with
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

let host_of_payload payload =
  match parse_request payload with
  | Some r -> Some r.host
  | None -> None
