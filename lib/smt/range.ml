(* Unsigned interval (range) analysis over bit-vector expressions: a cheap
   abstract interpretation that answers many branch-feasibility queries
   without touching the SAT solver (the fast path real engines put in
   front of their solvers).

   An interval [lo, hi] (unsigned, no wraparound representation) abstracts
   the set of values an expression can take given intervals for its
   symbols.  All transfer functions are conservative: the concrete value
   always lies within the computed interval (property-tested in
   test/test_smt.ml). *)

type t = { lo : int64; hi : int64; width : int }

let ucmp = Expr.ucompare

let top width = { lo = 0L; hi = Expr.mask width; width }
let of_const ~width v = { lo = v; hi = v; width }
let is_singleton r = r.lo = r.hi

let make ~width lo hi = { lo; hi; width }

(* Does the interval contain v? *)
let contains r v = ucmp r.lo v <= 0 && ucmp v r.hi <= 0

let join a b =
  { a with lo = (if ucmp a.lo b.lo <= 0 then a.lo else b.lo);
           hi = (if ucmp a.hi b.hi >= 0 then a.hi else b.hi) }

(* Intersection; [None] when empty (contradictory constraints). *)
let meet a b =
  let lo = if ucmp a.lo b.lo >= 0 then a.lo else b.lo in
  let hi = if ucmp a.hi b.hi <= 0 then a.hi else b.hi in
  if ucmp lo hi <= 0 then Some { a with lo; hi } else None

let bool_top = { lo = 0L; hi = 1L; width = 1 }
let bool_true = { lo = 1L; hi = 1L; width = 1 }
let bool_false = { lo = 0L; hi = 0L; width = 1 }

(* Unsigned addition overflow check at [width]. *)
let add_overflows width a b =
  let m = Expr.mask width in
  ucmp a (Int64.sub m b) > 0

let transfer_add w a b =
  if add_overflows w a.hi b.hi then top w
  else make ~width:w (Int64.add a.lo b.lo) (Int64.add a.hi b.hi)

let transfer_sub w a b =
  (* no underflow when a.lo >= b.hi *)
  if ucmp a.lo b.hi >= 0 then make ~width:w (Int64.sub a.lo b.hi) (Int64.sub a.hi b.lo)
  else top w

let transfer_mul w a b =
  (* safe when the product of the highs fits in 63 bits and the width *)
  let fits x y =
    x = 0L || (ucmp y (Int64.unsigned_div Int64.max_int (if x = 0L then 1L else x)) <= 0)
  in
  if w < 64 && fits a.hi b.hi && ucmp (Int64.mul a.hi b.hi) (Expr.mask w) <= 0 then
    make ~width:w (Int64.mul a.lo b.lo) (Int64.mul a.hi b.hi)
  else top w

let transfer_udiv w a b =
  if b.lo = 0L then top w (* division by zero possible: engine semantics say all-ones *)
  else make ~width:w (Int64.unsigned_div a.lo b.hi) (Int64.unsigned_div a.hi b.lo)

let transfer_and w a b =
  (* bitwise AND never exceeds either operand *)
  make ~width:w 0L (if ucmp a.hi b.hi <= 0 then a.hi else b.hi)

let transfer_or w a b =
  (* OR is at least each operand's low; bounded by next power of two *)
  let hi_bits x =
    let rec go v acc = if v = 0L then acc else go (Int64.shift_right_logical v 1) (Int64.logor (Int64.shift_left acc 1) 1L) in
    go x 0L
  in
  let lo = if ucmp a.lo b.lo >= 0 then a.lo else b.lo in
  make ~width:w lo (hi_bits (Int64.logor a.hi b.hi))

let cmp_result definite_true definite_false =
  if definite_true then bool_true else if definite_false then bool_false else bool_top

(* Abstract evaluation.  [lookup] gives symbol intervals (absent = top). *)
let rec eval lookup (e : Expr.t) : t =
  match e.Expr.node with
  | Expr.Const { width; value } -> of_const ~width value
  | Expr.Sym { id; width; _ } -> (
    match lookup id with Some r when r.width = width -> r | Some _ | None -> top width)
  | Expr.Unop (Expr.Neg, e1) ->
    let w = Expr.width e1 in
    let r = eval lookup e1 in
    if r.lo = 0L && r.hi = 0L then of_const ~width:w 0L else top w
  | Expr.Unop (Expr.Not, e1) ->
    let w = Expr.width e1 in
    let r = eval lookup e1 in
    (* complement flips the order *)
    make ~width:w
      (Int64.logand (Expr.mask w) (Int64.lognot r.hi))
      (Int64.logand (Expr.mask w) (Int64.lognot r.lo))
  | Expr.Binop (op, a, b) -> eval_binop lookup op a b
  | Expr.Ite (c, a, b) -> (
    let rc = eval lookup c in
    if rc.lo = 1L then eval lookup a
    else if rc.hi = 0L then eval lookup b
    else join (eval lookup a) (eval lookup b))
  | Expr.Extract { e = e1; off; len } ->
    let r = eval lookup e1 in
    if off = 0 && ucmp r.hi (Expr.mask len) <= 0 then make ~width:len r.lo r.hi else top len
  | Expr.Zext (e1, w) ->
    let r = eval lookup e1 in
    make ~width:w r.lo r.hi
  | Expr.Sext (e1, w) ->
    let r = eval lookup e1 in
    let we = Expr.width e1 in
    (* nonnegative-only intervals extend unchanged *)
    if ucmp r.hi (Expr.mask (we - 1)) <= 0 then make ~width:w r.lo r.hi else top w

and eval_binop lookup op a b =
  let w = Expr.width a in
  let ra () = eval lookup a in
  let rb () = eval lookup b in
  match op with
  | Expr.Add -> transfer_add w (ra ()) (rb ())
  | Expr.Sub -> transfer_sub w (ra ()) (rb ())
  | Expr.Mul -> transfer_mul w (ra ()) (rb ())
  | Expr.Udiv -> transfer_udiv w (ra ()) (rb ())
  | Expr.Urem ->
    let rb = rb () in
    if rb.lo = 0L then top w else make ~width:w 0L (Int64.sub rb.hi 1L)
  | Expr.Sdiv | Expr.Srem -> top w
  | Expr.And -> transfer_and w (ra ()) (rb ())
  | Expr.Or -> transfer_or w (ra ()) (rb ())
  | Expr.Xor ->
    (* xor shares or's upper bound but can cancel to zero *)
    { (transfer_or w (ra ()) (rb ())) with lo = 0L }
  | Expr.Shl | Expr.Lshr | Expr.Ashr -> (
    let rb = rb () in
    if is_singleton rb then
      let s = Int64.to_int rb.lo in
      let ra = ra () in
      match op with
      | Expr.Lshr when s >= 0 && s < w ->
        make ~width:w (Int64.shift_right_logical ra.lo s) (Int64.shift_right_logical ra.hi s)
      | Expr.Shl when s >= 0 && s < w && ucmp ra.hi (Int64.shift_right_logical (Expr.mask w) s) <= 0
        ->
        make ~width:w (Int64.shift_left ra.lo s) (Int64.shift_left ra.hi s)
      | _ -> top w
    else top w)
  | Expr.Ult ->
    let ra = ra () and rb = rb () in
    cmp_result (ucmp ra.hi rb.lo < 0) (ucmp ra.lo rb.hi >= 0)
  | Expr.Ule ->
    let ra = ra () and rb = rb () in
    cmp_result (ucmp ra.hi rb.lo <= 0) (ucmp ra.lo rb.hi > 0)
  | Expr.Slt | Expr.Sle ->
    (* signed comparisons decide only when both intervals stay in the
       nonnegative half, where they coincide with unsigned *)
    let ra = ra () and rb = rb () in
    let half = Expr.mask (w - 1) in
    if ucmp ra.hi half <= 0 && ucmp rb.hi half <= 0 then
      (match op with
      | Expr.Slt -> cmp_result (ucmp ra.hi rb.lo < 0) (ucmp ra.lo rb.hi >= 0)
      | _ -> cmp_result (ucmp ra.hi rb.lo <= 0) (ucmp ra.lo rb.hi > 0))
    else bool_top
  | Expr.Eq ->
    let ra = ra () and rb = rb () in
    cmp_result
      (is_singleton ra && is_singleton rb && ra.lo = rb.lo)
      (ucmp ra.hi rb.lo < 0 || ucmp rb.hi ra.lo < 0)
  | Expr.Concat ->
    let wc = Expr.width a + Expr.width b in
    let ra = ra () and rb = rb () in
    let wb = Expr.width b in
    if ucmp ra.hi 0L = 0 then make ~width:wc rb.lo rb.hi
    else
      make ~width:wc
        (Int64.logor (Int64.shift_left ra.lo wb) rb.lo)
        (Int64.logor (Int64.shift_left ra.hi wb) (Expr.mask wb))

(* --- deriving symbol intervals from a path condition ------------------------- *)

module Imap = Map.Make (Int)

(* Patterns that directly bound one symbol (possibly through zext). *)
let rec as_sym (e : Expr.t) =
  match e.Expr.node with
  | Expr.Sym { id; width; _ } -> Some (id, width)
  | Expr.Zext (inner, _) -> as_sym inner
  | _ -> None

(* Refine a symbol's box; [None] signals that the conjoined facts are
   contradictory (the conjunction they were learned from is UNSAT). *)
let refine boxes id width r =
  let cur = match Imap.find_opt id boxes with Some c -> c | None -> top width in
  match meet cur r with Some m -> Some (Imap.add id m boxes) | None -> None

(* Extract interval facts from one (simplified) constraint; [None] on
   contradiction. *)
let learn boxes (c : Expr.t) =
  match c.Expr.node with
  | Expr.Binop (Expr.Eq, lhs, { Expr.node = Expr.Const { value; _ }; _ }) -> (
    match as_sym lhs with
    | Some (id, w) when Expr.ucompare value (Expr.mask w) <= 0 ->
      refine boxes id w (of_const ~width:w value)
    | _ -> Some boxes)
  | Expr.Binop (Expr.Ult, lhs, { Expr.node = Expr.Const { value; _ }; _ }) -> (
    match as_sym lhs with
    | Some (id, w) ->
      if value = 0L then None (* x < 0 is unsatisfiable *)
      else refine boxes id w (make ~width:w 0L (Int64.sub value 1L))
    | None -> Some boxes)
  | Expr.Binop (Expr.Ule, lhs, { Expr.node = Expr.Const { value; _ }; _ }) -> (
    match as_sym lhs with
    | Some (id, w) -> refine boxes id w (make ~width:w 0L (Expr.truncate w value))
    | None -> Some boxes)
  | Expr.Binop (Expr.Ult, { Expr.node = Expr.Const { value; _ }; _ }, rhs) -> (
    match as_sym rhs with
    | Some (id, w) ->
      if Expr.ucompare value (Expr.mask w) >= 0 then None
      else refine boxes id w (make ~width:w (Int64.add value 1L) (Expr.mask w))
    | None -> Some boxes)
  | Expr.Binop (Expr.Ule, { Expr.node = Expr.Const { value; _ }; _ }, rhs) -> (
    match as_sym rhs with
    | Some (id, w) -> refine boxes id w (make ~width:w (Expr.truncate w value) (Expr.mask w))
    | None -> Some boxes)
  | _ -> Some boxes

(* A set of symbol boxes.  [learn] is a meet per constraint, and meet is
   commutative and associative, so learning constraints one at a time (the
   incremental path-condition maintenance in [State]) yields exactly the
   same boxes as folding over the whole pc. *)
type boxes = t Imap.t

let empty_boxes : boxes = Imap.empty
let learn_boxes = learn

(* Symbol intervals implied (conservatively) by a path condition; [None]
   when the learned facts alone are contradictory. *)
let boxes_of_pc pc =
  List.fold_left
    (fun acc c -> match acc with None -> None | Some boxes -> learn boxes c)
    (Some empty_boxes) pc

let lookup_of_boxes boxes id = Imap.find_opt id boxes

(* Fast verdict for "is [pc /\ cond] satisfiable?", where [pc] is known
   satisfiable.
   - If every value in pc's boxes satisfies [cond] ([1,1]), then every
     model of pc does, so the conjunction is SAT.
   - If no value in the boxes satisfies [cond] ([0,0]), it is UNSAT.
   - Otherwise, learn [cond]'s own facts into the boxes: a contradiction
     proves the conjunction UNSAT (all facts are implied by it).
   [None]: undecided, fall through to the SAT solver. *)
let quick_feasible boxes cond =
  let r = eval (lookup_of_boxes boxes) cond in
  if r.lo = 1L then Some true
  else if r.hi = 0L then Some false
  else match learn boxes cond with None -> Some false | Some _ -> None
