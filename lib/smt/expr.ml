(* Bit-vector expression terms, hash-consed.

   All values are fixed-width bit vectors with 1 <= width <= 64, stored in
   an [int64] with bits above the width cleared.  Boolean expressions are
   width-1 bit vectors (0 = false, 1 = true).  Smart constructors perform
   constant folding and cheap local rewrites; deeper canonicalization lives
   in {!Simplify}.

   Every term is interned in a global weak hashcons table, so structurally
   equal terms are physically equal and each carries a unique [id].  That
   makes [equal] O(1), [compare] an int comparison, [width] a field read,
   and lets caches downstream (solver caches, CNF bit maps) key on ids
   instead of walking structures.  Two memos live on the node itself: its
   symbol set and its simplified form, each computed once and dropped with
   the node. *)

module Iset = Set.Make (Int)

type unop =
  | Not  (* bitwise complement *)
  | Neg  (* two's complement negation *)

type binop =
  | Add
  | Sub
  | Mul
  | Udiv
  | Urem
  | Sdiv
  | Srem
  | And
  | Or
  | Xor
  | Shl
  | Lshr
  | Ashr
  | Ult
  | Ule
  | Slt
  | Sle
  | Eq
  | Concat

(* [id] is deliberately the first field: the polymorphic comparison of two
   distinct interned terms decides on the id alone, so even leftover
   structural [compare]/[=] uses are O(1). *)
type t = {
  id : int;
  node : node;
  width : int;
  syms_memo : Iset.t option Atomic.t;
  simp_memo : simp Atomic.t;
}

(* A normal term's memo says [Normal] rather than pointing at the term
   itself: a self-reference would make polymorphic equality on it loop. *)
and simp = Unknown | Normal | Rewrites_to of t

and node =
  | Const of { width : int; value : int64 }
  | Sym of { id : int; name : string; width : int }
  | Unop of unop * t
  | Binop of binop * t * t
  | Ite of t * t * t
  | Extract of { e : t; off : int; len : int }
  | Zext of t * int
  | Sext of t * int

exception Width_error of string

let mask width = if width >= 64 then -1L else Int64.sub (Int64.shift_left 1L width) 0x1L

let truncate width v = Int64.logand v (mask width)

(* Sign-extend the low [width] bits of [v] to a full int64. *)
let to_signed width v =
  if width >= 64 then v
  else
    let shift = 64 - width in
    Int64.shift_right (Int64.shift_left v shift) shift

let check_width w =
  if w < 1 || w > 64 then raise (Width_error (Printf.sprintf "width %d out of [1,64]" w))

(* Width is computed once per node at interning time, reading only the
   children's cached widths. *)
let node_width = function
  | Const { width; _ } -> width
  | Sym { width; _ } -> width
  | Unop (_, e) -> e.width
  | Binop ((Ult | Ule | Slt | Sle | Eq), _, _) -> 1
  | Binop (Concat, a, b) -> a.width + b.width
  | Binop (_, a, _) -> a.width
  | Ite (_, a, _) -> a.width
  | Extract { len; _ } -> len
  | Zext (_, w) -> w
  | Sext (_, w) -> w

(* --- The global hashcons table (sharded for domain parallelism) ----- *)

(* Shallow equality/hash: children are compared by physical identity and
   hashed by id, which is sound because they are already interned. *)
module Hashed_node = struct
  type nonrec t = t

  let equal a b =
    match (a.node, b.node) with
    | Const { width = w1; value = v1 }, Const { width = w2; value = v2 } ->
      w1 = w2 && Int64.equal v1 v2
    | Sym { id = i1; name = n1; width = w1 }, Sym { id = i2; name = n2; width = w2 } ->
      i1 = i2 && w1 = w2 && String.equal n1 n2
    | Unop (o1, e1), Unop (o2, e2) -> o1 = o2 && e1 == e2
    | Binop (o1, a1, b1), Binop (o2, a2, b2) -> o1 = o2 && a1 == a2 && b1 == b2
    | Ite (c1, a1, b1), Ite (c2, a2, b2) -> c1 == c2 && a1 == a2 && b1 == b2
    | Extract { e = e1; off = o1; len = l1 }, Extract { e = e2; off = o2; len = l2 } ->
      e1 == e2 && o1 = o2 && l1 = l2
    | Zext (e1, w1), Zext (e2, w2) -> e1 == e2 && w1 = w2
    | Sext (e1, w1), Sext (e2, w2) -> e1 == e2 && w1 = w2
    | _ -> false

  let comb h v = ((h * 1000003) + v) land max_int

  let hash t =
    match t.node with
    | Const { width; value } ->
      comb (comb 1 width) (Int64.to_int (Int64.logxor value (Int64.shift_right_logical value 32)))
    | Sym { id; name; width } -> comb (comb (comb 2 id) width) (Hashtbl.hash name)
    | Unop (op, e) -> comb (comb 3 (Hashtbl.hash op)) e.id
    | Binop (op, a, b) -> comb (comb (comb 4 (Hashtbl.hash op)) a.id) b.id
    | Ite (c, a, b) -> comb (comb (comb 5 c.id) a.id) b.id
    | Extract { e; off; len } -> comb (comb (comb 6 e.id) off) len
    | Zext (e, w) -> comb (comb 7 e.id) w
    | Sext (e, w) -> comb (comb 8 e.id) w
end

module Wtbl = Weak.Make (Hashed_node)

(* The table is sharded by node hash, one weak table + mutex per shard, so
   worker domains intern concurrently with contention only on hash
   collisions modulo the shard count.  Ids come from one atomic counter
   (globally unique, never reused); note that id *order* therefore depends
   on cross-domain interning interleavings — anything needing a
   reproducible order must use [compare_structural], exactly as for
   weak-table evictions within one domain.

   The shard is {!Shard_lock.of_hash} of the node hash (top bits of a
   Fibonacci mix: the weak tables pick buckets from the low bits).  Each
   table starts at [Weak.Make]'s minimum of 7 buckets and grows with its
   live set: every allocated bucket is a weak array the major GC scans on
   every cycle, and pre-sized 256-bucket tables (65,536 buckets, filled a
   few thousand per run by the worker domains) raised a multi-domain
   process's peak RSS by ~50% against 64 x 7. *)
type shard = { tbl : Wtbl.t; lock : Mutex.t }

let shards = Array.init Shard_lock.count (fun _ -> { tbl = Wtbl.create 7; lock = Mutex.create () })
let locks = Shard_lock.probe ~nshards:Shard_lock.count
let next_id = Atomic.make 0
let hc_hits = Atomic.make 0
let hc_misses = Atomic.make 0
let lock_stats () = Shard_lock.stats locks
let reset_lock_stats () = Shard_lock.reset locks

type hc_stats = { table_size : int; max_bucket : int; hits : int; misses : int; next_id : int }

let hashcons_stats () =
  let size = ref 0 and max_bucket = ref 0 in
  Array.iter
    (fun s ->
      Mutex.lock s.lock;
      size := !size + Wtbl.count s.tbl;
      let _, _, _, _, _, biggest = Wtbl.stats s.tbl in
      max_bucket := max !max_bucket biggest;
      Mutex.unlock s.lock)
    shards;
  {
    table_size = !size;
    max_bucket = !max_bucket;
    hits = Atomic.get hc_hits;
    misses = Atomic.get hc_misses;
    next_id = Atomic.get next_id;
  }

(* Every lookup probe shares these two memo cells, so a probe allocates
   no [Atomic]; nothing reads or writes them, because a probe never
   escapes [hashcons].  Only the node that gets interned gets cells of
   its own. *)
let no_syms : Iset.t option Atomic.t = Atomic.make None
let no_simp = Atomic.make Unknown

let hashcons node =
  (* the probe's id is never read: [Hashed_node] hashes and compares on the
     node alone, so an id of -1 finds any interned equal *)
  let probe = { id = -1; node; width = node_width node; syms_memo = no_syms; simp_memo = no_simp } in
  let i = Shard_lock.of_hash (Hashed_node.hash probe) in
  let s = shards.(i) in
  Shard_lock.acquire locks i s.lock;
  match Wtbl.find_opt s.tbl probe with
  | Some r ->
    Mutex.unlock s.lock;
    Atomic.incr hc_hits;
    r
  | None ->
    let id = Atomic.fetch_and_add next_id 1 in
    let t = { probe with id; syms_memo = Atomic.make None; simp_memo = Atomic.make Unknown } in
    Wtbl.add s.tbl t;
    Mutex.unlock s.lock;
    Atomic.incr hc_misses;
    t

(* --- Accessors ------------------------------------------------------ *)

let width e = e.width
let id e = e.id

let const ~width:w value =
  check_width w;
  hashcons (Const { width = w; value = truncate w value })

let of_bool b = const ~width:1 (if b then 1L else 0L)
let true_ = of_bool true
let false_ = of_bool false
let of_int ~width:w v = const ~width:w (Int64.of_int v)

let sym_counter = Atomic.make 0

let fresh_sym ?(name = "v") w =
  check_width w;
  hashcons (Sym { id = 1 + Atomic.fetch_and_add sym_counter 1; name; width = w })

(* Deterministic symbol creation for replay: the caller supplies the id.
   The counter is raised to at least [id] (CAS loop: another domain may be
   raising it concurrently) so fresh symbols never collide with it. *)
let sym_with_id ~id ~name w =
  check_width w;
  let rec raise_to () =
    let cur = Atomic.get sym_counter in
    if id > cur && not (Atomic.compare_and_set sym_counter cur id) then raise_to ()
  in
  raise_to ();
  hashcons (Sym { id; name; width = w })

let is_const e = match e.node with Const _ -> true | _ -> false
let const_value e = match e.node with Const { value; _ } -> Some value | _ -> None

(* [true_]/[false_] are module-level roots, so any structurally equal
   constant interns to the same object: identity check suffices. *)
let is_true e = e == true_
let is_false e = e == false_

(* Unsigned comparison of int64 values. *)
let ucompare a b = Int64.unsigned_compare a b

let eval_unop op w v =
  match op with
  | Not -> truncate w (Int64.lognot v)
  | Neg -> truncate w (Int64.neg v)

let eval_binop op w a b =
  match op with
  | Add -> truncate w (Int64.add a b)
  | Sub -> truncate w (Int64.sub a b)
  | Mul -> truncate w (Int64.mul a b)
  | Udiv -> if b = 0L then mask w else truncate w (Int64.unsigned_div a b)
  | Urem -> if b = 0L then a else truncate w (Int64.unsigned_rem a b)
  | Sdiv ->
    if b = 0L then mask w
    else
      let sa = to_signed w a and sb = to_signed w b in
      truncate w (Int64.div sa sb)
  | Srem ->
    if b = 0L then a
    else
      let sa = to_signed w a and sb = to_signed w b in
      truncate w (Int64.rem sa sb)
  | And -> Int64.logand a b
  | Or -> Int64.logor a b
  | Xor -> Int64.logxor a b
  | Shl ->
    let s = Int64.to_int b in
    if s >= w || s < 0 then 0L else truncate w (Int64.shift_left a s)
  | Lshr ->
    let s = Int64.to_int b in
    if s >= w || s < 0 then 0L else Int64.shift_right_logical a s
  | Ashr ->
    let s = Int64.to_int b in
    let sa = to_signed w a in
    if s >= w || s < 0 then truncate w (Int64.shift_right sa 63)
    else truncate w (Int64.shift_right sa s)
  | Ult -> if ucompare a b < 0 then 1L else 0L
  | Ule -> if ucompare a b <= 0 then 1L else 0L
  | Slt -> if to_signed w a < to_signed w b then 1L else 0L
  | Sle -> if to_signed w a <= to_signed w b then 1L else 0L
  | Eq -> if a = b then 1L else 0L
  | Concat -> assert false (* needs both widths; handled in [binop] *)

let unop op e =
  match e.node with
  | Const { width = w; value } -> const ~width:w (eval_unop op w value)
  | Unop (Not, inner) when op = Not -> inner
  | Unop (Neg, inner) when op = Neg -> inner
  | _ -> hashcons (Unop (op, e))

let binop op a b =
  (match op with
  | Concat -> check_width (a.width + b.width)
  | Eq | Ult | Ule | Slt | Sle | Add | Sub | Mul | Udiv | Urem | Sdiv | Srem | And | Or | Xor
  | Shl | Lshr | Ashr ->
    if a.width <> b.width then
      raise
        (Width_error (Printf.sprintf "binop operand widths differ: %d vs %d" a.width b.width)));
  match (a.node, b.node) with
  | Const { width = wa; value = va }, Const { value = vb; _ } -> (
    match op with
    | Concat ->
      let wb = b.width in
      const ~width:(wa + wb) (Int64.logor (Int64.shift_left va wb) vb)
    | Eq | Ult | Ule | Slt | Sle -> const ~width:1 (eval_binop op wa va vb)
    | _ -> const ~width:wa (eval_binop op wa va vb))
  | _ -> hashcons (Binop (op, a, b))

let ite c a b =
  if c.width <> 1 then raise (Width_error "ite condition must have width 1");
  if a.width <> b.width then raise (Width_error "ite branches must have equal widths");
  match c.node with
  | Const { value = 1L; _ } -> a
  | Const { value = 0L; _ } -> b
  | _ -> if a == b then a else hashcons (Ite (c, a, b))

let extract e ~off ~len =
  let w = e.width in
  if off < 0 || len < 1 || off + len > w then
    raise (Width_error (Printf.sprintf "extract [%d,%d) out of width %d" off (off + len) w));
  if off = 0 && len = w then e
  else
    match e.node with
    | Const { value; _ } -> const ~width:len (Int64.shift_right_logical value off)
    | Extract { e = inner; off = off'; _ } -> hashcons (Extract { e = inner; off = off + off'; len })
    | _ -> hashcons (Extract { e; off; len })

let zext e w =
  check_width w;
  let we = e.width in
  if w < we then raise (Width_error "zext target narrower than operand")
  else if w = we then e
  else
    match e.node with
    | Const { value; _ } -> const ~width:w value
    | _ -> hashcons (Zext (e, w))

let sext e w =
  check_width w;
  let we = e.width in
  if w < we then raise (Width_error "sext target narrower than operand")
  else if w = we then e
  else
    match e.node with
    | Const { value; _ } -> const ~width:w (to_signed we value)
    | _ -> hashcons (Sext (e, w))

(* Convenience boolean connectives over width-1 vectors. *)
let not_ e = unop Not e
let and_ a b = if is_true a then b else if is_true b then a else binop And a b
let or_ a b = if is_false a then b else if is_false b then a else binop Or a b
let eq a b = binop Eq a b
let ne a b = not_ (eq a b)
let ult a b = binop Ult a b
let ule a b = binop Ule a b
let ugt a b = binop Ult b a
let uge a b = binop Ule b a
let slt a b = binop Slt a b
let sle a b = binop Sle a b
let sgt a b = binop Slt b a
let sge a b = binop Sle b a
let add a b = binop Add a b
let sub a b = binop Sub a b
let mul a b = binop Mul a b
let concat a b = binop Concat a b

(* --- Identity, ordering, hashing ------------------------------------ *)

let equal (a : t) (b : t) = a == b
let compare (a : t) (b : t) = Int.compare a.id b.id
let hash (e : t) = e.id

(* Structural ordering that depends only on the term's shape, never on
   interning order.  Needed wherever an ordering must agree across
   processes (or across weak-table evictions that reassign ids), e.g.
   sorting constraints before a deterministic solve. *)
let rec compare_structural a b =
  if a == b then 0
  else
    let rank = function
      | Const _ -> 0
      | Sym _ -> 1
      | Unop _ -> 2
      | Binop _ -> 3
      | Ite _ -> 4
      | Extract _ -> 5
      | Zext _ -> 6
      | Sext _ -> 7
    in
    match (a.node, b.node) with
    | Const { width = w1; value = v1 }, Const { width = w2; value = v2 } ->
      let c = Int.compare w1 w2 in
      if c <> 0 then c else Int64.unsigned_compare v1 v2
    | Sym { id = i1; name = n1; width = w1 }, Sym { id = i2; name = n2; width = w2 } ->
      let c = Int.compare i1 i2 in
      if c <> 0 then c
      else
        let c = String.compare n1 n2 in
        if c <> 0 then c else Int.compare w1 w2
    | Unop (o1, e1), Unop (o2, e2) ->
      let c = Stdlib.compare o1 o2 in
      if c <> 0 then c else compare_structural e1 e2
    | Binop (o1, a1, b1), Binop (o2, a2, b2) ->
      let c = Stdlib.compare o1 o2 in
      if c <> 0 then c
      else
        let c = compare_structural a1 a2 in
        if c <> 0 then c else compare_structural b1 b2
    | Ite (c1, a1, b1), Ite (c2, a2, b2) ->
      let c = compare_structural c1 c2 in
      if c <> 0 then c
      else
        let c = compare_structural a1 a2 in
        if c <> 0 then c else compare_structural b1 b2
    | Extract { e = e1; off = o1; len = l1 }, Extract { e = e2; off = o2; len = l2 } ->
      let c = compare_structural e1 e2 in
      if c <> 0 then c
      else
        let c = Int.compare o1 o2 in
        if c <> 0 then c else Int.compare l1 l2
    | Zext (e1, w1), Zext (e2, w2) | Sext (e1, w1), Sext (e2, w2) ->
      let c = compare_structural e1 e2 in
      if c <> 0 then c else Int.compare w1 w2
    | n1, n2 -> Int.compare (rank n1) (rank n2)

(* --- Support set ----------------------------------------------------- *)

(* Symbol sets are memoized per node; sharing means each distinct subterm
   is computed once per lifetime, so [sym_set] is amortized O(1) on the
   solver hot path.  The memo is published through an [Atomic]: the
   computed set is a pure function of the (immutable) node, so racing
   writers store structurally equal values and losing one [set] costs a
   recompute, never correctness — but the Atomic makes the publication
   well-defined under the OCaml memory model (no relying on "benign"
   plain-field races). *)
let rec sym_set e =
  match Atomic.get e.syms_memo with
  | Some s -> s
  | None ->
    let s =
      match e.node with
      | Const _ -> Iset.empty
      | Sym { id; _ } -> Iset.singleton id
      | Unop (_, a) | Extract { e = a; _ } | Zext (a, _) | Sext (a, _) -> sym_set a
      | Binop (_, a, b) -> Iset.union (sym_set a) (sym_set b)
      | Ite (c, a, b) -> Iset.union (sym_set c) (Iset.union (sym_set a) (sym_set b))
    in
    Atomic.set e.syms_memo (Some s);
    s

let syms e = Iset.elements (sym_set e)

(* Replace every occurrence of the given subterms (bottom-up, so nested
   matches rewrite first).  Used for path-condition-implied equalities:
   when the path condition contains [e = c], any occurrence of [e] may be
   replaced by [c].  Lookup is by physical identity — sound because
   interning makes structural equality coincide with it. *)
let substitute pairs e =
  let subst e' = match List.assq_opt e' pairs with Some r -> r | None -> e' in
  (* memoized by id: a shared subterm is rebuilt once, not once per path
     through the DAG to it *)
  let memo = Hashtbl.create 16 in
  let rec go e =
    match e.node with
    | Const _ | Sym _ -> subst e
    | Unop _ | Binop _ | Ite _ | Extract _ | Zext _ | Sext _ -> (
      match Hashtbl.find_opt memo e.id with
      | Some r -> r
      | None ->
        let r = subst (rebuild e) in
        Hashtbl.add memo e.id r;
        r)
  and rebuild e =
    match e.node with
    | Const _ | Sym _ -> e
    | Unop (op, a) -> unop op (go a)
    | Binop (op, a, b) -> binop op (go a) (go b)
    | Ite (c, a, b) -> ite (go c) (go a) (go b)
    | Extract { e = a; off; len } -> extract (go a) ~off ~len
    | Zext (a, w) -> zext (go a) w
    | Sext (a, w) -> sext (go a) w
  in
  go e

let rec size e =
  match e.node with
  | Const _ | Sym _ -> 1
  | Unop (_, e) -> 1 + size e
  | Binop (_, a, b) -> 1 + size a + size b
  | Ite (c, a, b) -> 1 + size c + size a + size b
  | Extract { e; _ } -> 1 + size e
  | Zext (e, _) -> 1 + size e
  | Sext (e, _) -> 1 + size e

let unop_name = function Not -> "not" | Neg -> "neg"

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Udiv -> "udiv"
  | Urem -> "urem"
  | Sdiv -> "sdiv"
  | Srem -> "srem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Lshr -> "lshr"
  | Ashr -> "ashr"
  | Ult -> "ult"
  | Ule -> "ule"
  | Slt -> "slt"
  | Sle -> "sle"
  | Eq -> "eq"
  | Concat -> "concat"

let rec pp fmt e =
  match e.node with
  | Const { width; value } -> Format.fprintf fmt "%Lu:%d" value width
  | Sym { name; id; width } -> Format.fprintf fmt "%s%d:%d" name id width
  | Unop (op, e) -> Format.fprintf fmt "(%s %a)" (unop_name op) pp e
  | Binop (op, a, b) -> Format.fprintf fmt "(%s %a %a)" (binop_name op) pp a pp b
  | Ite (c, a, b) -> Format.fprintf fmt "(ite %a %a %a)" pp c pp a pp b
  | Extract { e; off; len } -> Format.fprintf fmt "(extract %a %d %d)" pp e off len
  | Zext (e, w) -> Format.fprintf fmt "(zext %a %d)" pp e w
  | Sext (e, w) -> Format.fprintf fmt "(sext %a %d)" pp e w

let to_string e = Format.asprintf "%a" pp e

(* Concrete evaluation under an assignment from symbol id to value.
   Unbound symbols evaluate to [default] (0 by default), which matches the
   "counterexample cache" usage where partial models are probed. *)
let rec eval ?(default = 0L) lookup e =
  match e.node with
  | Const { value; _ } -> value
  | Sym { id; width = w; _ } -> (
    match lookup id with Some v -> truncate w v | None -> truncate w default)
  | Unop (op, e1) -> eval_unop op e1.width (eval ~default lookup e1)
  | Binop (Concat, a, b) ->
    let wb = b.width in
    Int64.logor (Int64.shift_left (eval ~default lookup a) wb) (eval ~default lookup b)
  | Binop (op, a, b) -> eval_binop op a.width (eval ~default lookup a) (eval ~default lookup b)
  | Ite (c, a, b) ->
    if eval ~default lookup c = 1L then eval ~default lookup a else eval ~default lookup b
  | Extract { e = e1; off; len } ->
    truncate len (Int64.shift_right_logical (eval ~default lookup e1) off)
  | Zext (e1, _) -> eval ~default lookup e1
  | Sext (e1, w) -> truncate w (to_signed e1.width (eval ~default lookup e1))
