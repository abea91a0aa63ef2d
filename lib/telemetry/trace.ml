(* The one recorder: per-packet hops and control-plane events.

   Every instrumented component emits into the process-wide recorder.
   The default is none at all: call sites guard with [enabled ()], so
   an unrecorded run pays one ref read per potential emit and allocates
   nothing.  An installed recorder numbers hops and events from one
   sequence, keeps every hop (exact attribution needs them all) and
   keeps events in one bounded ring per stream, so a chatty subsystem
   (per-message channel drops under loss) can never evict the quiet one
   that holds the root cause (the single fault injection).

   Packets are immutable values that get re-tagged and copied as they
   cross the fabric, so there is no identity to follow; hops correlate
   instead on a [trace_key]: a hash of the frame with its VLAN stack
   stripped.  Tag pushes, pops and VID rewrites — the HARMLESS data
   path — preserve the key.  Header rewrites (e.g. a load balancer
   changing the destination) start a new key, and two byte-identical
   frames share one; both are documented properties of the scheme.
   The key and the packet rendering are computed when first read, not
   at emit, so the tracer stays cheaper than the path it observes. *)

type layer =
  | Host
  | Legacy
  | Switch
  | Controller
  | Manager
  | Other of string

let layer_name = function
  | Host -> "host"
  | Legacy -> "legacy"
  | Switch -> "switch"
  | Controller -> "controller"
  | Manager -> "manager"
  | Other s -> s

type hop = {
  seq : int;
  ts_ns : int;
  component : string;
  layer : layer;
  stage : string;
  port : int option;
  trace_key : int Lazy.t;
  packet : string Lazy.t;
  bytes : int;
  cycles : int;
  detail : string;
}

type level = Debug | Info | Warn | Error

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

type event = {
  seq : int;
  ts_ns : int;
  level : level;
  stream : string;
  name : string;
  corr : int;
  detail : string;
}

(* Fixed-capacity ring of events, oldest evicted first. *)
type ring = {
  data : event array;
  mutable start : int; (* index of the oldest event *)
  mutable len : int;
}

let dummy_event =
  { seq = 0; ts_ns = 0; level = Debug; stream = ""; name = ""; corr = 0; detail = "" }

(* Returns true when an old event was evicted. *)
let ring_push r e =
  let cap = Array.length r.data in
  if r.len < cap then begin
    r.data.((r.start + r.len) mod cap) <- e;
    r.len <- r.len + 1;
    false
  end
  else begin
    r.data.(r.start) <- e;
    r.start <- (r.start + 1) mod cap;
    true
  end

let ring_to_list r =
  List.init r.len (fun i -> r.data.((r.start + i) mod Array.length r.data))

type t = {
  stream_capacity : int;
  clock : (unit -> int) option;
  mutable next_seq : int;
  mutable rev_hops : hop list;
  rings : (string, ring) Hashtbl.t;
  mutable recorded : int;
  mutable dropped : int;
}

let create ?(stream_capacity = 512) ?clock () =
  if stream_capacity < 2 then invalid_arg "Trace.create: stream_capacity < 2";
  {
    stream_capacity;
    clock;
    next_seq = 1;
    rev_hops = [];
    rings = Hashtbl.create 16;
    recorded = 0;
    dropped = 0;
  }

let recorder : t option ref = ref None

let install t = recorder := Some t

let uninstall t =
  match !recorder with
  | Some r when r == t -> recorder := None
  | Some _ | None -> ()

let enabled () = Option.is_some !recorder

let with_recorder ?stream_capacity ?clock f =
  let t = create ?stream_capacity ?clock () in
  let saved = !recorder in
  install t;
  Fun.protect ~finally:(fun () -> recorder := saved) (fun () -> f t)

let take_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let key_of_packet (pkt : Netpkt.Packet.t) =
  Hashtbl.hash (Netpkt.Packet.encode { pkt with Netpkt.Packet.vlans = [] })

let corr_of_string s = match Hashtbl.hash s with 0 -> 1 | h -> h

let emit ~ts_ns ~component ~layer ~stage ?port ?(cycles = 0) ?(detail = "") pkt =
  match !recorder with
  | None -> ()
  | Some t ->
      t.rev_hops <-
        {
          seq = take_seq t;
          ts_ns;
          component;
          layer;
          stage;
          port;
          trace_key = lazy (key_of_packet pkt);
          packet = lazy (Format.asprintf "%a" Netpkt.Packet.pp pkt);
          bytes = Netpkt.Packet.wire_size pkt;
          cycles;
          detail;
        }
        :: t.rev_hops

let is_token s =
  s <> "" && not (String.exists (fun c -> c = ' ' || c = '\t' || c = '\n') s)

let validate_token what s =
  if not (is_token s) then
    invalid_arg (Printf.sprintf "Trace.event: %s must be a non-empty token: %S" what s)

let sanitize_detail s =
  if String.contains s '\n' then String.map (function '\n' -> ' ' | c -> c) s
  else s

let event ?(level = Info) ?ts_ns ?(corr = 0) ?(detail = "") ~stream name =
  match !recorder with
  | None -> ()
  | Some t ->
      validate_token "stream" stream;
      validate_token "event name" name;
      let ts_ns =
        match (ts_ns, t.clock) with
        | Some ts, _ -> ts
        | None, Some f -> f ()
        | None, None -> 0
      in
      let detail = sanitize_detail detail in
      let e = { seq = take_seq t; ts_ns; level; stream; name; corr; detail } in
      t.recorded <- t.recorded + 1;
      let ring =
        match Hashtbl.find_opt t.rings stream with
        | Some r -> r
        | None ->
            let data = Array.make t.stream_capacity dummy_event in
            let r = { data; start = 0; len = 0 } in
            Hashtbl.replace t.rings stream r;
            r
      in
      if ring_push ring e then t.dropped <- t.dropped + 1

let clear t =
  t.next_seq <- 1;
  t.rev_hops <- [];
  Hashtbl.reset t.rings;
  t.recorded <- 0;
  t.dropped <- 0

let of_hops hops =
  let t = create () in
  t.rev_hops <- List.rev hops;
  t.next_seq <- 1 + List.fold_left (fun m (h : hop) -> max m h.seq) 0 hops;
  t

(* ---- reading ---- *)

let mark t = t.next_seq

let hops ?(since = 0) t =
  List.fold_left
    (fun acc (h : hop) -> if h.seq >= since then h :: acc else acc)
    [] t.rev_hops

type trace = { key : int; hops : hop list }

let traces ?since t =
  let ordered =
    List.stable_sort
      (fun (a : hop) (b : hop) ->
        match compare a.ts_ns b.ts_ns with 0 -> compare a.seq b.seq | c -> c)
      (hops ?since t)
  in
  (* Group by key, keeping first-appearance order of the keys. *)
  let tbl : (int, hop list ref) Hashtbl.t = Hashtbl.create 16 in
  let key_order = ref [] in
  List.iter
    (fun hop ->
      let key = Lazy.force hop.trace_key in
      match Hashtbl.find_opt tbl key with
      | Some cell -> cell := hop :: !cell
      | None ->
          Hashtbl.replace tbl key (ref [ hop ]);
          key_order := key :: !key_order)
    ordered;
  List.rev_map (fun key -> { key; hops = List.rev !(Hashtbl.find tbl key) }) !key_order

let streams t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.rings [] |> List.sort String.compare

let events ?stream ?min_level t =
  let keep e =
    match min_level with
    | None -> true
    | Some l -> level_rank e.level >= level_rank l
  in
  let of_ring r = List.filter keep (ring_to_list r) in
  let all =
    match stream with
    | Some s -> (
        match Hashtbl.find_opt t.rings s with Some r -> of_ring r | None -> [])
    | None -> List.concat_map (fun s -> of_ring (Hashtbl.find t.rings s)) (streams t)
  in
  List.sort
    (fun (a : event) (b : event) ->
      match compare a.ts_ns b.ts_ns with 0 -> compare a.seq b.seq | c -> c)
    all

let recorded t = t.recorded
let dropped t = t.dropped

(* ---- event line format ---- *)

let event_to_string e =
  if e.detail = "" then
    Printf.sprintf "event %d %d %s %s %08x %s" e.seq e.ts_ns (level_name e.level)
      e.stream e.corr e.name
  else
    Printf.sprintf "event %d %d %s %s %08x %s %s" e.seq e.ts_ns (level_name e.level)
      e.stream e.corr e.name e.detail

let split_word s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let event_of_string line =
  let line = String.trim line in
  let kw, rest = split_word line in
  if kw <> "event" then Stdlib.Error "expected 'event'"
  else
    let seq_s, rest = split_word rest in
    let ts_s, rest = split_word rest in
    let level_s, rest = split_word rest in
    let stream, rest = split_word rest in
    let corr_s, rest = split_word rest in
    let name, detail = split_word rest in
    match
      ( int_of_string_opt seq_s,
        int_of_string_opt ts_s,
        level_of_string level_s,
        int_of_string_opt ("0x" ^ corr_s) )
    with
    | Some seq, Some ts_ns, Some level, Some corr when is_token stream && is_token name ->
        Stdlib.Ok { seq; ts_ns; level; stream; name; corr; detail }
    | _ -> Stdlib.Error (Printf.sprintf "malformed event line %S" line)

(* ---- pretty-printing ---- *)

let pp_time fmt ns =
  if ns < 1_000 then Format.fprintf fmt "%dns" ns
  else if ns < 1_000_000 then Format.fprintf fmt "%.3fus" (float_of_int ns /. 1e3)
  else Format.fprintf fmt "%.3fms" (float_of_int ns /. 1e6)

let pp_hop fmt (hop : hop) =
  Format.fprintf fmt "%-10s %-14s %-18s"
    (Format.asprintf "%a" pp_time hop.ts_ns)
    hop.component
    (layer_name hop.layer ^ "." ^ hop.stage);
  (match hop.port with
  | Some p -> Format.fprintf fmt " port=%-3d" p
  | None -> Format.fprintf fmt "         ");
  if hop.cycles > 0 then Format.fprintf fmt " %5d cyc" hop.cycles
  else Format.fprintf fmt "          ";
  if hop.detail <> "" then Format.fprintf fmt "  %s" hop.detail

let pp_event fmt e =
  Format.fprintf fmt "%-10s %-5s %-20s"
    (Format.asprintf "%a" pp_time e.ts_ns)
    (level_name e.level) (e.stream ^ "." ^ e.name);
  if e.corr <> 0 then Format.fprintf fmt " [%08x]" e.corr
  else Format.fprintf fmt "           ";
  if e.detail <> "" then Format.fprintf fmt "  %s" e.detail
