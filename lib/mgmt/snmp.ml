type error =
  | Bad_community
  | No_such_object
  | Not_writable of string
  | End_of_mib
  | Timeout

let pp_error fmt = function
  | Bad_community -> Format.pp_print_string fmt "bad community"
  | No_such_object -> Format.pp_print_string fmt "noSuchObject"
  | Not_writable reason -> Format.fprintf fmt "notWritable (%s)" reason
  | End_of_mib -> Format.pp_print_string fmt "endOfMibView"
  | Timeout -> Format.pp_print_string fmt "timeout"

let is_transient = function
  | Timeout -> true
  | Bad_community | No_such_object | Not_writable _ | End_of_mib -> false

type t = {
  mib : Mib.t;
  read_community : string;
  write_community : string;
  mutable requests : int;
  mutable fault : Fault_plan.t option;
}

let create ?(read_community = "public") ?(write_community = "private") mib =
  {
    mib;
    read_community;
    write_community;
    requests = 0;
    fault = None;
  }

let set_fault_plan t plan = t.fault <- plan

let readable t community =
  String.equal community t.read_community || String.equal community t.write_community

(* A lost datagram times out before the agent sees community or OID. *)
let timed_out t =
  t.requests <- t.requests + 1;
  match t.fault with
  | Some plan -> Fault_plan.should_fail plan
  | None -> false

let get t ~community oid =
  if timed_out t then Error Timeout
  else if not (readable t community) then Error Bad_community
  else match Mib.get t.mib oid with Some v -> Ok v | None -> Error No_such_object

let get_next t ~community oid =
  if timed_out t then Error Timeout
  else if not (readable t community) then Error Bad_community
  else match Mib.next t.mib oid with Some b -> Ok b | None -> Error End_of_mib

let set t ~community oid value =
  if timed_out t then Error Timeout
  else if not (String.equal community t.write_community) then Error Bad_community
  else
    match Mib.set t.mib oid value with
    | Ok () -> Ok ()
    | Error reason -> Error (Not_writable reason)

let walk t ~community prefix =
  if timed_out t then Error Timeout
  else if not (readable t community) then Error Bad_community
  else Ok (Mib.walk t.mib prefix)

let requests t = t.requests
