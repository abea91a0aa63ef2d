(** A deliberately small HTTP/1.1 model — just enough for the Parental
    Control use case (matching on the [Host] header) and the Load Balancer
    workload (GET requests and status responses).

    {2 What parses}

    A payload parses only up to its first blank line (CR LF CR LF).  The
    head before that line is split into lines at each LF, and one trailing
    CR is dropped from each line.  A bare LF LF is not a blank line, so a
    payload without CR LF CR LF never parses.  Everything after the blank
    line is the body, taken as is.

    - {b Request line}: exactly three tokens separated by single spaces
      (["GET / HTTP/1.1"]; a double space makes an empty fourth token), the
      third being [HTTP/1.1] or [HTTP/1.0].  Method and path may be empty.
    - {b Status line}: the version ([HTTP/1.1] or [HTTP/1.0]), a space and
      the status token, which must read under [int_of_string_opt] (so
      ["0x1F"], ["+200"], ["2_00"] and ["-5"] read as numbers).  The reason
      is the rest of the line after the second space, or [""] if there is
      none.
    - {b Header lines}: a line without [':'] is skipped.  The key is
      everything before the first [':'], unchanged; the value is the rest
      of the line under [String.trim].
    - {b Host}: a request needs a header whose key is [host] in any case
      (["Host "] with a space is not one).  The first one gives
      [request.host]; every [Host] header is left out of
      [request.headers].  A response keeps all of its headers.

    Parsing never raises.  Rendering is the inverse on the records it
    renders; the texts are fixed below. *)

type request = {
  meth : string;   (** e.g. ["GET"] *)
  path : string;   (** e.g. ["/index.html"] *)
  host : string;   (** value of the [Host] header *)
  headers : (string * string) list;  (** other headers, in order *)
  body : string;
}

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

val get : ?headers:(string * string) list -> host:string -> string -> request
(** [get ~host path] is a GET request. *)

val ok : ?headers:(string * string) list -> string -> response
(** [ok body] is a [200 OK] response. *)

val render_request : request -> string
(** ["<meth> <path> HTTP/1.1\r\nHost: <host>\r\n"], then ["<k>: <v>\r\n"]
    per header, then ["\r\n<body>"]. *)

val parse_request : string -> request option
(** [None] if the string is not a complete well-formed request, as
    defined above.  Allocates only the returned strings and records. *)

val render_response : response -> string
(** ["HTTP/1.1 <status> <reason>\r\n"] with the status in decimal (a
    negative one with its ['-']), then ["<k>: <v>\r\n"] per header, then
    ["\r\n<body>"]. *)

val parse_response : string -> response option
(** [None] if the string is not a complete well-formed response, as
    defined above. *)

val host_of_payload : string -> string option
(** Sniff the [Host] header out of a raw TCP payload: [Some host] exactly
    when {!parse_request} returns a request with that [host], but only
    the value is built.  This is what the Parental Control app does with
    packet-ins. *)
