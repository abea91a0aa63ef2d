(** A deliberately small HTTP/1.1 model — just enough for the Parental
    Control use case (matching on the [Host] header) and the Load Balancer
    workload (GET requests and status responses). *)

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
val parse_request : string -> request option
(** [None] if the string is not a complete well-formed request. *)

val render_response : response -> string
val parse_response : string -> response option

val split_head_body : string -> (string * string) option
(** The head and body around the first blank line (CRLF CRLF), or [None]
    if there is none.  A bare LF LF is not a blank line. *)

val host_of_payload : string -> string option
(** Sniff the [Host] header out of a raw TCP payload, if it parses as an
    HTTP request — what the Parental Control app does with packet-ins. *)
