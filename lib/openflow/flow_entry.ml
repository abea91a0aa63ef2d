type instruction =
  | Apply_actions of Of_action.t list
  | Write_actions of Of_action.t list
  | Clear_actions
  | Goto_table of int
  | Meter of int

type t = {
  priority : int;
  match_ : Of_match.t;
  instructions : instruction list;
  cookie : int64;
  idle_timeout_s : int option;
  hard_timeout_s : int option;
  mutable packets : int;
  mutable bytes : int;
  mutable installed_at_ns : int;
  mutable last_used_ns : int;
  mutable seq : int;
}

let make ?(priority = 1000) ?(cookie = 0L) ?idle_timeout_s ?hard_timeout_s
    ~match_ instructions =
  {
    priority;
    match_;
    instructions;
    cookie;
    idle_timeout_s;
    hard_timeout_s;
    packets = 0;
    bytes = 0;
    installed_at_ns = 0;
    last_used_ns = 0;
    seq = 0;
  }

let touch t ~now_ns ~bytes =
  t.packets <- t.packets + 1;
  t.bytes <- t.bytes + bytes;
  t.last_used_ns <- now_ns

let expired t ~now_ns =
  let over timeout_s since =
    match timeout_s with
    | None -> false
    | Some s -> now_ns - since > s * 1_000_000_000
  in
  over t.hard_timeout_s t.installed_at_ns
  || over t.idle_timeout_s (Stdlib.max t.last_used_ns t.installed_at_ns)

let actions t =
  List.concat_map
    (function
      | Apply_actions acts -> acts
      | Write_actions _ | Clear_actions | Goto_table _ | Meter _ -> [])
    t.instructions

let pp_instruction fmt = function
  | Apply_actions acts -> Format.fprintf fmt "apply(%a)" Of_action.pp_list acts
  | Write_actions acts -> Format.fprintf fmt "write(%a)" Of_action.pp_list acts
  | Clear_actions -> Format.pp_print_string fmt "clear"
  | Goto_table n -> Format.fprintf fmt "goto:%d" n
  | Meter id -> Format.fprintf fmt "meter:%d" id

let pp fmt t =
  Format.fprintf fmt "prio=%d %a -> %a [n=%d]" t.priority Of_match.pp t.match_
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
       pp_instruction)
    t.instructions t.packets
