open Simnet

module Itbl = Hashtbl.Make (Int)

(* One int per (VLAN, MAC): the VLAN above the 48-bit address. *)
let key ~vlan ~mac = (vlan lsl 48) lor Netpkt.Mac_addr.to_int mac

type entry = {
  mutable port : int;
  mutable learned_at : Sim_time.t;
  mutable stamp : int; (* of this entry's latest learn *)
}

(* Learn order, oldest first, is a ring of (key, stamp) pairs.  Every
   learn pushes a pair with a fresh stamp, so a refreshed or removed
   entry leaves a stale pair behind; eviction skips stale pairs as it
   pops them (lazy deletion), and a full ring drops them in place
   before it grows. *)
type t = {
  table : entry Itbl.t;
  capacity : int;
  aging : Sim_time.span;
  mutable ring_keys : int array;
  mutable ring_stamps : int array;
  mutable head : int;
  mutable len : int;
  mutable next_stamp : int;
  mutable per_port : int array; (* entries per port *)
}

let create ?(capacity = 8192) ?(aging = Sim_time.s 300) () =
  if capacity <= 0 then invalid_arg "Mac_table.create: capacity <= 0";
  {
    table = Itbl.create 256;
    capacity;
    aging;
    ring_keys = Array.make 16 0;
    ring_stamps = Array.make 16 0;
    head = 0;
    len = 0;
    next_stamp = 0;
    per_port = Array.make 16 0;
  }

let expired t ~now entry = Sim_time.diff now entry.learned_at > t.aging

let count t port delta =
  let n = Array.length t.per_port in
  if port >= n then begin
    let wider = Array.make (max (port + 1) (2 * n)) 0 in
    Array.blit t.per_port 0 wider 0 n;
    t.per_port <- wider
  end;
  t.per_port.(port) <- t.per_port.(port) + delta

let remove t key entry =
  Itbl.remove t.table key;
  count t entry.port (-1)

let live t key stamp =
  match Itbl.find t.table key with
  | entry -> entry.stamp = stamp
  | exception Not_found -> false

(* Drop the stale pairs in place, then double the ring if live pairs
   still fill more than half of it, so the next compaction is at least
   half a ring of pushes away. *)
let compact t =
  let n = Array.length t.ring_keys in
  let kept = ref 0 in
  for i = 0 to t.len - 1 do
    let src = (t.head + i) mod n in
    let k = t.ring_keys.(src) and s = t.ring_stamps.(src) in
    if live t k s then begin
      let dst = (t.head + !kept) mod n in
      t.ring_keys.(dst) <- k;
      t.ring_stamps.(dst) <- s;
      incr kept
    end
  done;
  t.len <- !kept;
  if 2 * t.len > n then begin
    let unroll ring =
      Array.init (2 * n) (fun i -> if i < t.len then ring.((t.head + i) mod n) else 0)
    in
    t.ring_keys <- unroll t.ring_keys;
    t.ring_stamps <- unroll t.ring_stamps;
    t.head <- 0
  end

let push t key stamp =
  if t.len = Array.length t.ring_keys then compact t;
  let at = (t.head + t.len) mod Array.length t.ring_keys in
  t.ring_keys.(at) <- key;
  t.ring_stamps.(at) <- stamp;
  t.len <- t.len + 1

let pop t =
  t.head <- (t.head + 1) mod Array.length t.ring_keys;
  t.len <- t.len - 1

(* Pop pairs off the head of the ring: stale pairs, and live entries
   while they have aged out by [now] — or, with [~evict], exactly one live
   entry whatever its age.  Pairs are in stamp order and [learned_at]
   rises with the stamp, so the first live entry that has not expired
   ends an aging sweep: amortised O(1). *)
let rec sweep t ~now ~evict =
  if t.len > 0 then begin
    let k = t.ring_keys.(t.head) and s = t.ring_stamps.(t.head) in
    match Itbl.find t.table k with
    | entry when entry.stamp = s ->
        if evict || expired t ~now entry then begin
          pop t;
          remove t k entry;
          if not evict then sweep t ~now ~evict
        end
    | _ | (exception Not_found) ->
        pop t;
        sweep t ~now ~evict
  end

let learn t ~now ~vlan ~mac ~port =
  if port < 0 then invalid_arg "Mac_table.learn: negative port";
  if Netpkt.Mac_addr.is_unicast mac then begin
    let key = key ~vlan ~mac in
    let stamp = t.next_stamp in
    t.next_stamp <- stamp + 1;
    (match Itbl.find t.table key with
    | entry ->
        count t entry.port (-1);
        count t port 1;
        entry.port <- port;
        entry.learned_at <- now;
        entry.stamp <- stamp
    | exception Not_found ->
        if Itbl.length t.table >= t.capacity then sweep t ~now ~evict:true;
        Itbl.add t.table key { port; learned_at = now; stamp };
        count t port 1);
    push t key stamp
  end

let lookup t ~now ~vlan ~mac =
  let key = key ~vlan ~mac in
  match Itbl.find t.table key with
  | entry ->
      if expired t ~now entry then begin
        remove t key entry;
        -1
      end
      else entry.port
  | exception Not_found -> -1

let entry_count t = Itbl.length t.table

let count_port t ~now ~port =
  sweep t ~now ~evict:false;
  if port >= 0 && port < Array.length t.per_port then t.per_port.(port) else 0

let flush t =
  Itbl.reset t.table;
  t.head <- 0;
  t.len <- 0;
  Array.fill t.per_port 0 (Array.length t.per_port) 0

let flush_port t ~port =
  let doomed =
    Itbl.fold
      (fun key entry acc -> if entry.port = port then (key, entry) :: acc else acc)
      t.table []
  in
  List.iter (fun (key, entry) -> remove t key entry) doomed
