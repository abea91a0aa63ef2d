open Simnet

(* One int per (VLAN, MAC): the VLAN above the 48-bit address. *)
let key ~vlan ~mac = (vlan lsl 48) lor Netpkt.Mac_addr.to_int mac

let none = -1

(* An open-addressed hash table of flat int arrays indexed by bucket,
   probed linearly and at most half full ([keys.(b) = none] when empty).
   It starts with room for 16 entries and doubles on demand, up to room
   for [capacity].  A removal shifts the rest of its probe run back, so
   there are no tombstones.  The entries form one list through
   [prev]/[next] in learn order, least recently learned at [oldest]: a
   refresh relinks its bucket at [newest], and eviction and the aging
   sweep take [oldest]. *)
type t = {
  capacity : int;
  aging : Sim_time.span;
  mutable keys : int array;
  mutable ports : int array;
  mutable learned : int array; (* ns *)
  mutable prev : int array;
  mutable next : int array;
  mutable shift : int; (* 63 - log2 (Array.length keys) *)
  mutable count : int;
  mutable oldest : int;
  mutable newest : int;
  mutable per_port : int array; (* entries per port *)
}

(* The top bits of a multiplicative hash: every key bit, the VLAN's at
   48 and up included, reaches them.  The low bits of the product never
   see the VLAN, so every VLAN copy of a MAC would share a bucket. *)
let home t key = (key * 0x1E3779B97F4A7C15) lsr t.shift

(* The bucket holding [key], or the empty bucket ending its run. *)
let rec probe t key b =
  let k = t.keys.(b) in
  if k = key || k = none then b else probe t key ((b + 1) land (Array.length t.keys - 1))

let find t key = probe t key (home t key)
let expired t ~now b = Sim_time.to_ns now - t.learned.(b) > t.aging

let count t port delta =
  let n = Array.length t.per_port in
  if port >= n then begin
    let wider = Array.make (Int.max (port + 1) (2 * n)) 0 in
    Array.blit t.per_port 0 wider 0 n;
    t.per_port <- wider
  end;
  t.per_port.(port) <- t.per_port.(port) + delta

let unlink t b =
  let p = t.prev.(b) and n = t.next.(b) in
  if p = none then t.oldest <- n else t.next.(p) <- n;
  if n = none then t.newest <- p else t.prev.(n) <- p

let link_newest t b =
  t.prev.(b) <- t.newest;
  t.next.(b) <- none;
  if t.newest = none then t.oldest <- b else t.next.(t.newest) <- b;
  t.newest <- b

let insert t key port learned =
  let b = find t key in
  t.keys.(b) <- key;
  t.ports.(b) <- port;
  t.learned.(b) <- learned;
  link_newest t b

(* Rehash into [2^bits] buckets, keeping the learn order. *)
let resize t bits =
  let keys = t.keys and ports = t.ports and learned = t.learned and next = t.next in
  let buckets = 1 lsl bits in
  t.keys <- Array.make buckets none;
  t.ports <- Array.make buckets 0;
  t.learned <- Array.make buckets 0;
  t.prev <- Array.make buckets none;
  t.next <- Array.make buckets none;
  t.shift <- 63 - bits;
  let b = ref t.oldest in
  t.oldest <- none;
  t.newest <- none;
  while !b <> none do
    insert t keys.(!b) ports.(!b) learned.(!b);
    b := next.(!b)
  done

let create ?(capacity = 8192) ?(aging = Sim_time.s 300) () =
  if capacity <= 0 then invalid_arg "Mac_table.create: capacity <= 0";
  let t =
    { capacity; aging; keys = [||]; ports = [||]; learned = [||]; prev = [||];
      next = [||]; shift = 63; count = 0; oldest = none; newest = none;
      per_port = Array.make 16 0 }
  in
  let rec bits n = if 1 lsl n >= 2 * Int.min 16 capacity then n else bits (n + 1) in
  resize t (bits 1);
  t

(* Move the entry in bucket [j] to the empty bucket [hole]. *)
let move t j hole =
  t.keys.(hole) <- t.keys.(j);
  t.ports.(hole) <- t.ports.(j);
  t.learned.(hole) <- t.learned.(j);
  let p = t.prev.(j) and n = t.next.(j) in
  t.prev.(hole) <- p;
  t.next.(hole) <- n;
  if p = none then t.oldest <- hole else t.next.(p) <- hole;
  if n = none then t.newest <- hole else t.prev.(n) <- hole

(* Empty bucket [b], then walk the rest of its run: an entry whose home
   is not cyclically in (hole, j] moves back into the hole, and the hole
   moves to where that entry was. *)
let remove t b =
  unlink t b;
  count t t.ports.(b) (-1);
  t.count <- t.count - 1;
  let mask = Array.length t.keys - 1 in
  let hole = ref b and j = ref ((b + 1) land mask) in
  while t.keys.(!j) <> none do
    if (!j - home t t.keys.(!j)) land mask >= (!j - !hole) land mask then begin
      move t !j !hole;
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  t.keys.(!hole) <- none

let learn t ~now ~vlan ~mac ~port =
  if port < 0 then invalid_arg "Mac_table.learn: negative port";
  if Netpkt.Mac_addr.is_unicast mac then begin
    let key = key ~vlan ~mac in
    let b = find t key in
    if t.keys.(b) = key then begin
      if t.ports.(b) <> port then begin
        count t t.ports.(b) (-1);
        count t port 1;
        t.ports.(b) <- port
      end;
      t.learned.(b) <- Sim_time.to_ns now;
      if b <> t.newest then begin
        unlink t b;
        link_newest t b
      end
    end
    else begin
      if t.count >= t.capacity then remove t t.oldest;
      if 2 * (t.count + 1) > Array.length t.keys then resize t (64 - t.shift);
      (* eviction and growth both move entries: probe again *)
      insert t key port (Sim_time.to_ns now);
      t.count <- t.count + 1;
      count t port 1
    end
  end

let lookup t ~now ~vlan ~mac =
  let key = key ~vlan ~mac in
  let b = find t key in
  if t.keys.(b) <> key then none
  else if expired t ~now b then begin
    remove t b;
    none
  end
  else t.ports.(b)

let entry_count t = t.count

(* Entries sit in learn order, so the first one that has not aged out
   ends the sweep: amortised O(1). *)
let rec sweep t ~now =
  if t.oldest <> none && expired t ~now t.oldest then begin
    remove t t.oldest;
    sweep t ~now
  end

let count_port t ~now ~port =
  sweep t ~now;
  if port >= 0 && port < Array.length t.per_port then t.per_port.(port) else 0

let flush t =
  Array.fill t.keys 0 (Array.length t.keys) none;
  t.count <- 0;
  t.oldest <- none;
  t.newest <- none;
  Array.fill t.per_port 0 (Array.length t.per_port) 0

(* A removal shifts later entries of its run back, into [b] or past it,
   or (when the run wraps) only between buckets already cleared of
   [port]: so [b] is looked at again, and no entry is skipped. *)
let flush_port t ~port =
  let b = ref 0 in
  while !b < Array.length t.keys do
    if t.keys.(!b) <> none && t.ports.(!b) = port then remove t !b else incr b
  done
