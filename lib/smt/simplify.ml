(* Canonicalizing rewriter for bit-vector expressions.

   The smart constructors in {!Expr} already fold constants; this module
   adds algebraic identities, normalizes commutative operands (constants
   to the right), and lowers signed division/remainder to unsigned
   operations so the bit blaster only handles unsigned arithmetic.

   The rewriter is bottom-up; rules are applied to a fixpoint at each node
   (each rule strictly decreases a well-founded measure, so this
   terminates).  Results are memoized on the node itself: because terms
   are interned, each distinct live subterm is rewritten at most once, no
   matter how many path conditions or domains share it, and its memo dies
   with it. *)

open Expr

let is_zero e = match e.node with Const { value = 0L; _ } -> true | _ -> false
let is_ones e = match e.node with Const { width; value } -> value = mask width | _ -> false
let is_one e = match e.node with Const { value = 1L; _ } -> true | _ -> false

let commutative = function
  | Add | Mul | And | Or | Xor | Eq -> true
  | Sub | Udiv | Urem | Sdiv | Srem | Shl | Lshr | Ashr | Ult | Ule | Slt | Sle | Concat ->
    false

(* Total order used to canonicalize commutative operands: constants sort
   last so that the constant ends up on the right.  Ties break on the
   structural order, not hashcons ids: ids depend on interning history,
   and the canonical form must be identical across workers for replayed
   paths to concretize identically. *)
let rank e =
  match e.node with
  | Const _ -> 2
  | Sym _ -> 0
  | Unop _ | Binop _ | Ite _ | Extract _ | Zext _ | Sext _ -> 1

let operand_order a b =
  let c = Int.compare (rank a) (rank b) in
  if c <> 0 then c else Expr.compare_structural a b

(* Rewrite statistics, for the solver microbenchmark: [visits] counts
   rewriter entries into un-memoized nodes, [rewrites] counts rule
   applications, [memo_hits] counts simplifications answered from a
   node's memo slot.  Domain-local: each domain counts its own rewriting
   work, with no cross-domain write contention. *)
type rw_stats = { mutable visits : int; mutable rewrites : int; mutable memo_hits : int }

let stats_key =
  Domain.DLS.new_key (fun () -> { visits = 0; rewrites = 0; memo_hits = 0 })

let stats_live () = Domain.DLS.get stats_key
let stats () = { (stats_live ()) with visits = (stats_live ()).visits }

let reset_stats () =
  let s = stats_live () in
  s.visits <- 0;
  s.rewrites <- 0;
  s.memo_hits <- 0

let rewrite_binop op a b =
  let w = Expr.width a in
  match (op, a.node, b.node) with
  (* additive identities *)
  | Add, _, _ when is_zero b -> Some a
  | Sub, _, _ when is_zero b -> Some a
  | Sub, _, _ when a == b -> Some (const ~width:w 0L)
  (* multiplicative identities *)
  | Mul, _, _ when is_zero b -> Some (const ~width:w 0L)
  | Mul, _, _ when is_one b -> Some a
  | Udiv, _, _ when is_one b -> Some a
  | Urem, _, _ when is_one b -> Some (const ~width:w 0L)
  (* bitwise identities *)
  | And, _, _ when is_zero b -> Some (const ~width:w 0L)
  | And, _, _ when is_ones b -> Some a
  | And, _, _ when a == b -> Some a
  | Or, _, _ when is_zero b -> Some a
  | Or, _, _ when is_ones b -> Some (const ~width:w (mask w))
  | Or, _, _ when a == b -> Some a
  | Xor, _, _ when is_zero b -> Some a
  | Xor, _, _ when a == b -> Some (const ~width:w 0L)
  | Xor, _, _ when is_ones b -> Some (unop Not a)
  (* shifts by zero *)
  | (Shl | Lshr | Ashr), _, _ when is_zero b -> Some a
  (* reflexive comparisons *)
  | Eq, _, _ when a == b -> Some true_
  | Ult, _, _ when a == b -> Some false_
  | Ule, _, _ when a == b -> Some true_
  | Slt, _, _ when a == b -> Some false_
  | Sle, _, _ when a == b -> Some true_
  (* unsigned bounds *)
  | Ult, _, _ when is_zero b -> Some false_
  | Ule, _, _ when is_zero a -> Some true_
  | Ule, _, _ when is_ones b -> Some true_
  | Ult, _, _ when is_zero a -> Some (ne b (const ~width:(Expr.width b) 0L))
  (* canonical equality forms feed path-condition substitution *)
  | Ule, _, _ when is_zero b -> Some (eq a b)
  | Ult, _, _ when is_one b -> Some (eq a (const ~width:w 0L))
  (* eq against boolean constants collapses to the operand or its negation *)
  | Eq, _, _ when Expr.width a = 1 && is_one b -> Some a
  | Eq, _, _ when Expr.width a = 1 && is_zero b -> Some (unop Not a)
  (* push equalities and unsigned comparisons through zero-extension:
     keeps formulas narrow and exposes [sym = const] equalities for
     path-condition substitution *)
  | Eq, Zext (e, _), Const { width = _; value } ->
    let we = Expr.width e in
    if truncate we value = value then Some (eq e (const ~width:we value)) else Some false_
  | Eq, Sext (e, _), Const { width = wc; value } ->
    let we = Expr.width e in
    let back = truncate we value in
    if truncate wc (to_signed we back) = value then Some (eq e (const ~width:we back))
    else Some false_
  | Eq, Unop (Not, e), Const { width = wc; value } ->
    Some (eq e (const ~width:wc (Int64.lognot value)))
  | Eq, Binop (Add, x, { node = Const { width = wc; value = k }; _ }), Const { value = c; _ } ->
    Some (eq x (const ~width:wc (Int64.sub c k)))
  | Eq, Binop (Sub, x, { node = Const { width = wc; value = k }; _ }), Const { value = c; _ } ->
    Some (eq x (const ~width:wc (Int64.add c k)))
  | Ult, Zext (e, _), Const { value; _ } ->
    let we = Expr.width e in
    if ucompare value (mask we) > 0 then Some true_ else Some (ult e (const ~width:we value))
  | Ult, Const { value; _ }, Zext (e, _) ->
    let we = Expr.width e in
    if ucompare value (mask we) >= 0 then Some false_
    else Some (ult (const ~width:we value) e)
  | Ule, Zext (e, _), Const { value; _ } ->
    let we = Expr.width e in
    if ucompare value (mask we) >= 0 then Some true_
    else Some (ule e (const ~width:we value))
  | Ule, Const { value; _ }, Zext (e, _) ->
    let we = Expr.width e in
    if ucompare value (mask we) > 0 then Some false_
    else Some (ule (const ~width:we value) e)
  | Eq, Zext (x, _), Zext (y, _) when Expr.width x = Expr.width y -> Some (eq x y)
  | Ult, Zext (x, _), Zext (y, _) when Expr.width x = Expr.width y -> Some (ult x y)
  | Ule, Zext (x, _), Zext (y, _) when Expr.width x = Expr.width y -> Some (ule x y)
  (* x + x = 2x is not smaller; skip.  (x - c) etc. left to folding. *)
  | _ -> None

let rewrite_ite c a b =
  match (c.node, a, b) with
  | Unop (Not, c'), a, b -> Some (ite c' b a)
  (* ite c 1 0 = c ; ite c 0 1 = !c  (width-1 only) *)
  | _, o, z when Expr.width a = 1 && is_one o && is_zero z -> Some c
  | _, z, o when Expr.width a = 1 && is_zero z && is_one o -> Some (unop Not c)
  | _ -> None

(* Lower signed division and remainder to unsigned equivalents so that the
   CNF translation only needs unsigned circuits.  The lowering matches
   {!Expr.eval_binop} exactly, including division by zero:
   [sdiv x 0 = all-ones] and [srem x 0 = x]. *)
let lower_sdiv a b =
  let w = Expr.width a in
  let zero = const ~width:w 0L in
  let abs e = ite (slt e zero) (unop Neg e) e in
  let q = binop Udiv (abs a) (abs b) in
  let opposite_signs = binop Xor (slt a zero) (slt b zero) in
  ite (eq b zero) (const ~width:w (mask w)) (ite opposite_signs (unop Neg q) q)

let lower_srem a b =
  let w = Expr.width a in
  let zero = const ~width:w 0L in
  let abs e = ite (slt e zero) (unop Neg e) e in
  let r = binop Urem (abs a) (abs b) in
  ite (eq b zero) a (ite (slt a zero) (unop Neg r) r)

(* Rewrite [e] with [simp] simplifying its children and the result of a
   fired rule: [simplify] passes itself, [is_normal] a recursion that
   reads no memo. *)
let rewrite simp e =
  let s = stats_live () in
  s.visits <- s.visits + 1;
  match e.node with
  | Const _ | Sym _ -> e
  | Unop (op, e1) -> unop op (simp e1)
  | Binop (op, a, b) ->
    let a = simp a and b = simp b in
    let a, b = if commutative op && operand_order a b > 0 then (b, a) else (a, b) in
    let folded = binop op a b in
    (match folded.node with
    | Binop (op', a', b') -> (
      match rewrite_binop op' a' b' with
      | Some e' ->
        s.rewrites <- s.rewrites + 1;
        simp e'
      | None -> folded)
    | _ -> folded)
  | Ite (c, a, b) ->
    let c = simp c and a = simp a and b = simp b in
    let folded = ite c a b in
    (match folded.node with
    | Ite (c', a', b') -> (
      match rewrite_ite c' a' b' with
      | Some e' ->
        s.rewrites <- s.rewrites + 1;
        simp e'
      | None -> folded)
    | _ -> folded)
  | Extract { e = e1; off; len } -> extract (simp e1) ~off ~len
  | Zext (e1, w) -> zext (simp e1) w
  | Sext (e1, w) -> sext (simp e1) w

let memo_hit r =
  let s = stats_live () in
  s.memo_hits <- s.memo_hits + 1;
  r

(* The memo is the term's own [simp_memo] slot, published through its
   [Atomic] as in {!Expr.sym_set}.  Sharing it across domains is safe:
   the rewriter is deterministic and equal results intern to the same
   physical node, so racing domains store the same value and a lost write
   costs a recompute, never correctness. *)
let rec simplify e =
  match Atomic.get e.simp_memo with
  | Normal -> memo_hit e
  | Rewrites_to r -> memo_hit r
  | Unknown ->
    let r = rewrite simplify e in
    (* simplify is idempotent: mark the result as its own fixpoint so
       re-simplifying an already-canonical term is a single slot read *)
    Atomic.set r.simp_memo Normal;
    if r != e then Atomic.set e.simp_memo (Rewrites_to r);
    r

let is_normal e =
  let rec fresh e = rewrite fresh e in
  fresh e == e

(* Recursively replace Sdiv/Srem with their unsigned lowering; used by the
   CNF translation. *)
let rec lower e =
  match e.node with
  | Const _ | Sym _ -> e
  | Unop (op, e1) -> unop op (lower e1)
  | Binop (Sdiv, a, b) -> lower_sdiv (lower a) (lower b)
  | Binop (Srem, a, b) -> lower_srem (lower a) (lower b)
  | Binop (op, a, b) -> binop op (lower a) (lower b)
  | Ite (c, a, b) -> ite (lower c) (lower a) (lower b)
  | Extract { e = e1; off; len } -> extract (lower e1) ~off ~len
  | Zext (e1, w) -> zext (lower e1) w
  | Sext (e1, w) -> sext (lower e1) w
