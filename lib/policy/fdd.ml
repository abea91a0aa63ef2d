open Syntax

type key = Syntax.field * Syntax.value

let key_to_string (f, v) =
  Format.asprintf "%s=%a" (field_name f) pp_value v

let compare_mods a b =
  let rec go = function
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | x :: xs, y :: ys ->
        let c = compare_key x y in
        if c <> 0 then c else go (xs, ys)
  in
  go (a, b)

let compare_buckets a b =
  let rec go = function
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | x :: xs, y :: ys ->
        let c = compare_mods x y in
        if c <> 0 then c else go (xs, ys)
  in
  go (a, b)

let compare_police (a : police) (b : police) =
  let c = Int.compare a.meter_id b.meter_id in
  if c <> 0 then c
  else
    let c = Int.compare a.rate_kbps b.rate_kbps in
    if c <> 0 then c else Int.compare a.burst_kb b.burst_kb

module Act = struct
  type t = {
    mods : (Syntax.field * Syntax.value) list;
    police : Syntax.police option;
    balance : (Syntax.field * Syntax.value) list list option;
  }

  (* Last write per field wins, result sorted by field rank. *)
  let normalize_mods mods =
    let tbl =
      List.fold_left
        (fun acc (f, v) ->
          (f, v) :: List.filter (fun (f', _) -> compare_field f f' <> 0) acc)
        [] mods
    in
    List.sort compare_key tbl

  let find_mod mods f =
    List.find_map
      (fun (f', v) -> if compare_field f f' = 0 then Some v else None)
      mods

  let make ?police ?balance mods =
    (* No discard-erases-rewrites normalisation here: a later composition
       can overwrite [Loc] and resurrect the packet, at which point the
       "unobservable" rewrites are observable after all.  Discard is
       quotiented away only at observation time ([is_plain_disc],
       {!strip_disc}), where the location really is final. *)
    let mods = normalize_mods mods in
    let balance = Option.map (List.map normalize_mods) balance in
    { mods; police; balance }

  let id = { mods = []; police = None; balance = None }
  let is_id a = a.mods = [] && a.police = None && a.balance = None

  (* Rewrites don't matter: with the location finally [Disc] and no
     bucket choice to override it, nothing is emitted, so only a meter
     side effect could distinguish the action from doing nothing. *)
  let is_plain_disc a =
    a.police = None && a.balance = None
    &&
    match find_mod a.mods Loc with Some (At Disc) -> true | _ -> false

  let loc a =
    match find_mod a.mods Loc with Some (At l) -> Some l | _ -> None

  let compare a b =
    let c = compare_mods a.mods b.mods in
    if c <> 0 then c
    else
      let c = Option.compare compare_police a.police b.police in
      if c <> 0 then c
      else Option.compare compare_buckets a.balance b.balance

  let pp ppf a =
    if is_id a then Format.pp_print_string ppf "id"
    else begin
      let sep = ref false in
      let item f =
        if !sep then Format.pp_print_string ppf "; ";
        sep := true;
        f ()
      in
      List.iter
        (fun (f, v) ->
          item (fun () ->
              Format.fprintf ppf "%s:=%a" (field_name f) pp_value v))
        a.mods;
      Option.iter
        (fun p ->
          item (fun () ->
              Format.fprintf ppf "police(meter:%d %dkbps burst:%dkb)"
                p.meter_id p.rate_kbps p.burst_kb))
        a.police;
      Option.iter
        (fun buckets ->
          item (fun () ->
              Format.fprintf ppf "balance{%a}"
                (Format.pp_print_list
                   ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " | ")
                   (fun ppf mods ->
                     if mods = [] then Format.pp_print_string ppf "id"
                     else pp_mods ppf mods))
                buckets))
        a.balance
    end

  (* [compose a b] is "do [a], then [b]".  The caller guarantees
     [a.balance = None] (tests and further policy after a balance are
     rejected in [seq_act]). *)
  let compose a b =
    assert (a.balance = None);
    let police =
      match (a.police, b.police) with
      | Some _, Some _ ->
          invalid_arg "Policy.Fdd: two meters in sequence on one path"
      | Some p, None | None, Some p -> Some p
      | None, None -> None
    in
    make ?police ?balance:b.balance (a.mods @ b.mods)
end

type t = { uid : int; node : node }
and node = Leaf of Act.t list | Branch of key * t * t

let equal a b = a.uid = b.uid

(* Hash-consing.  A leaf is keyed by its sorted action set, compared with
   [Act.compare]; a branch by its field, the integer form of its tested
   value (one kind of value per field, so that is injective) and its
   children's uids.  Neither key is printed: rendering one per lookup
   was most of a compile's allocation.  Every memo table here starts
   small and grows on demand: any program that links the controller
   links them, and a 512-bucket table would sit in its major heap
   unused. *)
module Leaf_tbl = Hashtbl.Make (struct
  type t = Act.t list

  let equal = List.equal (fun a b -> Act.compare a b = 0)
  let hash = Hashtbl.hash
end)

let next_uid = ref 0
let leaf_tbl : t Leaf_tbl.t = Leaf_tbl.create 16
let branch_tbl : (field * int * int * int, t) Hashtbl.t = Hashtbl.create 16

let value_code = function
  | Int n -> n
  | Mac m -> Netpkt.Mac_addr.to_int m
  | Ip a -> Netpkt.Ipv4_addr.to_int a
  | At (Phys p) -> p
  | At _ ->
      (* Syntax.check admits no other location test. *)
      assert false

let fresh node =
  let t = { uid = !next_uid; node } in
  incr next_uid;
  t

(* Lookups here and below match on [find] rather than [find_opt]: a hit
   then allocates nothing. *)
let leaf acts =
  (* Only the order/duplicate quotient here — notably discard actions are
     NOT dropped next to others: a later [seq] can still test or
     overwrite a discarded state's fields, so that quotient is deferred
     to {!strip_disc} where the actions really are final. *)
  let acts = List.sort_uniq Act.compare acts in
  match Leaf_tbl.find leaf_tbl acts with
  | t -> t
  | exception Not_found ->
      let t = fresh (Leaf acts) in
      Leaf_tbl.add leaf_tbl acts t;
      t

let drop = leaf []
let id = leaf [ Act.id ]

(* Restrict [d] to packets satisfying [key]: prunes re-tests of the same
   field with a different value (which the key makes statically false).
   Sound because keys strictly increase along paths, so any same-field
   test below [key] carries a different value. *)
let rec assume ((f, _) as key) d =
  match d.node with
  | Leaf _ -> d
  | Branch ((f', _), _, lo) ->
      if compare_field f f' = 0 then assume key lo else d

(* The reductions giving a unique normal form for a field with more than
   two candidate values (a chain of [(f, v1)], [(f, v2)], ... tests down
   the [lo] edges, like a [case] with a default arm): a test is redundant
   exactly when its [hi] equals what a packet satisfying the test would
   reach by falling through the rest of its field's chain — [assume key
   lo].  For a [lo] not re-testing the field this degenerates to the
   familiar BDD [hi == lo] collapse.  No context-sensitive rewrite beyond
   this (such as eliminating a modification [f := v] under the test
   [(f, v)]) is applied: a rewrite that fires only where a test node
   happens to sit above a leaf makes the normal form depend on
   construction order, breaking the structural algebraic laws.  The
   redundant write is semantically harmless — rewriting a field to the
   value it already holds changes no packet. *)
let branch key hi lo =
  if hi == assume key lo then lo
  else
    let f, v = key in
    let k = (f, value_code v, hi.uid, lo.uid) in
    match Hashtbl.find branch_tbl k with
    | t -> t
    | exception Not_found ->
        let t = fresh (Branch (key, hi, lo)) in
        Hashtbl.add branch_tbl k t;
        t

let atom key = branch key id drop
let natom key = branch key drop id

(* A memo key for a pair of nodes, packed into one int: no uid reaches
   2^31 (each node is several heap words). *)
let pair d1 d2 = (d1.uid lsl 31) lor d2.uid

(* Generic ordered merge: pairs the leaves reached by the same packet in
   both diagrams and combines them with [op]. *)
let merge ~name op =
  let tbl : (int, t) Hashtbl.t = Hashtbl.create 16 in
  ignore name;
  let rec go d1 d2 =
    let k = pair d1 d2 in
    match Hashtbl.find tbl k with
    | r -> r
    | exception Not_found ->
        let r =
          match (d1.node, d2.node) with
          | Leaf a, Leaf b -> leaf (op a b)
          | Leaf _, Branch (key, hi, lo) ->
              branch key (go d1 hi) (go d1 lo)
          | Branch (key, hi, lo), Leaf _ ->
              branch key (go hi d2) (go lo d2)
          | Branch (k1, h1, l1), Branch (k2, h2, l2) ->
              let c = compare_key k1 k2 in
              if c = 0 then branch k1 (go h1 h2) (go l1 l2)
              else if c < 0 then branch k1 (go h1 (assume k1 d2)) (go l1 d2)
              else branch k2 (go (assume k2 d1) h2) (go d1 l2)
        in
        Hashtbl.add tbl k r;
        r
  in
  go

let sum = merge ~name:"sum" (fun a b -> a @ b)

let as_guard name a k =
  match a with
  | [] -> []
  | [ x ] when Act.is_id x -> k ()
  | _ -> invalid_arg ("Policy.Fdd: " ^ name ^ " guard is not a predicate")

let prod = merge ~name:"prod" (fun a b -> as_guard "prod" a (fun () -> b))
let ors = merge ~name:"ors" (fun a b -> if a = [] then b else a)

let negate_tbl : (int, t) Hashtbl.t = Hashtbl.create 16

let rec negate d =
  match Hashtbl.find negate_tbl d.uid with
  | r -> r
  | exception Not_found ->
      let r =
        match d.node with
        | Leaf [] -> id
        | Leaf [ a ] when Act.is_id a -> drop
        | Leaf _ -> invalid_arg "Policy.Fdd: negation of a non-predicate"
        | Branch (key, hi, lo) -> branch key (negate hi) (negate lo)
      in
      Hashtbl.add negate_tbl d.uid r;
      r

(* [cond key hi lo]: branch on [key] without assuming [hi]/[lo] respect the
   key order — the ordered merges in [prod]/[sum] restore the invariant. *)
let cond key hi lo = sum (prod (atom key) hi) (prod (natom key) lo)

let seq_tbl : (int, t) Hashtbl.t = Hashtbl.create 16

let rec seq d1 d2 =
  let k = pair d1 d2 in
  match Hashtbl.find seq_tbl k with
  | r -> r
  | exception Not_found ->
      let r =
        match d1.node with
        | Leaf acts ->
            List.fold_left (fun acc a -> sum acc (seq_act a d2)) drop acts
        | Branch (key, hi, lo) -> cond key (seq hi d2) (seq lo d2)
      in
      Hashtbl.add seq_tbl k r;
      r

and seq_act (a : Act.t) d2 =
  match a.balance with
  | Some _ -> (
      (* After a hash-based bucket choice the residual policy must be the
         identity (or drop): the compiled select group is terminal. *)
      match d2.node with
      | Leaf [] -> drop
      | Leaf [ x ] when Act.is_id x -> leaf [ a ]
      | _ -> invalid_arg "Policy.Fdd: tests or writes after balance")
  | None -> (
      match d2.node with
      | Leaf acts2 -> leaf (List.map (Act.compose a) acts2)
      | Branch (((f, v) as key), hi, lo) -> (
          match Act.find_mod a.mods f with
          | Some v' ->
              if equal_value v' v then seq_act a hi else seq_act a lo
          | None -> cond key (seq_act a hi) (seq_act a lo)))

let of_pred p =
  let rec go = function
    | True -> id
    | False -> drop
    | Test (f, v) -> atom (f, v)
    | And (a, b) -> prod (go a) (go b)
    | Or (a, b) -> sum (go a) (go b)
    | Not a -> negate (go a)
  in
  go p

let of_policy pol =
  Syntax.check pol;
  let rec go = function
    | Filter p -> of_pred p
    | Mod (f, v) -> leaf [ Act.make [ (f, v) ] ]
    | Union (a, b) -> sum (go a) (go b)
    | Seq (a, b) -> seq (go a) (go b)
    | Orelse (a, b) -> ors (go a) (go b)
    | Police p -> leaf [ Act.make ~police:p [] ]
    | Balance buckets -> leaf [ Act.make ~balance:buckets [] ]
  in
  go pol

let strip_disc d =
  let memo = Hashtbl.create 64 in
  let rec go d =
    match Hashtbl.find_opt memo d.uid with
    | Some r -> r
    | None ->
        let r =
          match d.node with
          | Leaf acts ->
              leaf (List.filter (fun a -> not (Act.is_plain_disc a)) acts)
          | Branch (key, hi, lo) -> branch key (go hi) (go lo)
        in
        Hashtbl.add memo d.uid r;
        r
  in
  go d

let leaves d =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let rec go d =
    if not (Hashtbl.mem seen d.uid) then begin
      Hashtbl.add seen d.uid ();
      match d.node with
      | Leaf acts -> out := acts :: !out
      | Branch (_, hi, lo) ->
          go hi;
          go lo
    end
  in
  go d;
  List.rev !out

let rec pp ppf d =
  match d.node with
  | Leaf [] -> Format.pp_print_string ppf "drop"
  | Leaf acts ->
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " , ")
           Act.pp)
        acts
  | Branch (key, hi, lo) ->
      Format.fprintf ppf "(%s ? %a : %a)" (key_to_string key) pp hi pp lo

let to_string d = Format.asprintf "%a" pp d
