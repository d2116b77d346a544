(* Bit blasting of bit-vector expressions to CNF over a {!Sat} instance.

   Each expression translates to a vector of SAT literals, least
   significant bit first.  Translations are memoized per context, so shared
   subterms produce shared circuitry.  Signed division/remainder must be
   lowered first (see {!Simplify.lower}); the translation here only
   implements unsigned arithmetic.

   A context can be used one-shot ([assert_expr] + [solve], one query) or
   persistently: [activate] blasts a constraint once, keyed on the
   term, and guards its root assertion behind a fresh activation
   literal so it only binds when that literal is assumed.  The gate
   clauses themselves are definitional (always satisfiable), so a
   persistent instance is a growing library of translated circuits from
   which [solve_with_assumptions] switches an arbitrary subset on per
   query — a constraint already blasted contributes zero new clauses on
   re-query, and everything the CDCL core learned earlier is retained. *)

(* Cone (dependency) tracking.  Per translated node — an expression, a
   shared division circuit, or an activation group — we record which SAT
   variables its own gates allocated ([vars]) and which previously
   translated nodes it references ([refs], by dep id).  The transitive
   closure of a group's dep record is exactly the set of variables its
   constraint can depend on; [solve_activated] hands that cone to
   {!Sat.begin_marks} so the search never branches outside it.  Without
   the restriction a persistent instance must assign {e every} variable —
   including circuitry of groups that are switched off — making query
   cost grow with instance size instead of query size.

   Dep records live in a dense array; every translated node is known by
   its index, so the per-query cone walk is pure array traversal (a
   stamped visited array, no hashing).  Only first-time translation pays
   hashtable costs.

   Recording happens only inside an open frame, i.e. under [activate]:
   a one-shot context ([assert_expr] + [solve]) never walks a cone and
   records nothing.  A context is used one way or the other, never both
   (a node translated outside a frame has no dep record to reference). *)
type dep = {
  dvars : int array;
  drefs : int array;
  dclo : int; (* clause-arena range emitted while this node's frame *)
  dchi : int; (* was open (nested frames included: all in the cone) *)
}

type frame = { mutable fvars : int list; mutable frefs : int list; fclo : int }

(* Keyed by the term itself (hashed by id), so a translated term stays
   alive, and keeps its id, as long as the context does. *)
module Etbl = Hashtbl.Make (Expr)

type ctx = {
  sat : Sat.t;
  true_lit : int;
  cache : (int array * int) Etbl.t;
    (* term -> literal per bit, dep index *)
  sym_bits : (int, int array) Hashtbl.t; (* sym id -> SAT var per bit *)
  divmod_cache : (int * int, int array * int array * int) Hashtbl.t;
    (* (a id, b id) -> quotient bits, remainder bits, dep index *)
  groups : (int * int) Etbl.t;
    (* constraint -> activation literal, dep index *)
  mutable deps : dep array; (* dense arena of cone records *)
  mutable ndeps : int;
  mutable walked : int array; (* dep index -> last mark generation *)
  mutable mark_gen : int;
  mutable frames : frame list; (* open recording frames, innermost first *)
}

let no_dep = { dvars = [||]; drefs = [||]; dclo = 0; dchi = 0 }

let create () =
  let sat = Sat.create () in
  let tv = Sat.new_var sat in
  let true_lit = Sat.lit ~positive:true tv in
  Sat.add_clause sat [| true_lit |];
  {
    sat;
    true_lit;
    cache = Etbl.create 256;
    sym_bits = Hashtbl.create 64;
    divmod_cache = Hashtbl.create 16;
    groups = Etbl.create 64;
    deps = Array.make 256 no_dep;
    ndeps = 0;
    walked = Array.make 256 0;
    mark_gen = 0;
    frames = [];
  }

let lit_true ctx = ctx.true_lit
let lit_false ctx = ctx.true_lit lxor 1
let const_lit ctx b = if b then lit_true ctx else lit_false ctx
let is_ctrue ctx l = l = ctx.true_lit
let is_cfalse ctx l = l = ctx.true_lit lxor 1

let push_frame ctx =
  ctx.frames <-
    { fvars = []; frefs = []; fclo = Sat.num_clauses ctx.sat } :: ctx.frames

(* Close the innermost frame into a fresh dense dep slot; returns its
   index. *)
let pop_frame ctx =
  match ctx.frames with
  | f :: rest ->
    ctx.frames <- rest;
    if ctx.ndeps >= Array.length ctx.deps then begin
      let a = Array.make (2 * Array.length ctx.deps) no_dep in
      Array.blit ctx.deps 0 a 0 ctx.ndeps;
      ctx.deps <- a;
      let w = Array.make (2 * Array.length ctx.walked) 0 in
      Array.blit ctx.walked 0 w 0 ctx.ndeps;
      ctx.walked <- w
    end;
    let idx = ctx.ndeps in
    ctx.deps.(idx) <-
      {
        dvars = Array.of_list f.fvars;
        drefs = Array.of_list f.frefs;
        dclo = f.fclo;
        dchi = Sat.num_clauses ctx.sat;
      };
    ctx.ndeps <- idx + 1;
    idx
  | [] -> assert false

(* Record that the current frame's node references dep node [idx]. *)
let note_ref ctx idx =
  match ctx.frames with
  | f :: _ ->
    assert (idx >= 0);
    f.frefs <- idx :: f.frefs
  | [] -> ()

(* Run [f] as one dep node; returns its result and dep index. *)
let framed ctx f =
  push_frame ctx;
  let r = f () in
  (r, pop_frame ctx)

(* [framed] when recording, else plainly with dep index -1. *)
let in_frame ctx f = match ctx.frames with [] -> (f (), -1) | _ :: _ -> framed ctx f

let ctx_new_var ctx =
  let v = Sat.new_var ctx.sat in
  (match ctx.frames with f :: _ -> f.fvars <- v :: f.fvars | [] -> ());
  v

let fresh_lit ctx = Sat.lit ~positive:true (ctx_new_var ctx)
let neg l = l lxor 1

(* --- gates ------------------------------------------------------------ *)

let g_and ctx a b =
  if is_cfalse ctx a || is_cfalse ctx b then lit_false ctx
  else if is_ctrue ctx a then b
  else if is_ctrue ctx b then a
  else if a = b then a
  else if a = neg b then lit_false ctx
  else begin
    let o = fresh_lit ctx in
    Sat.add_clause ctx.sat [| neg a; neg b; o |];
    Sat.add_clause ctx.sat [| a; neg o |];
    Sat.add_clause ctx.sat [| b; neg o |];
    o
  end

let g_or ctx a b = neg (g_and ctx (neg a) (neg b))

let g_xor ctx a b =
  if is_cfalse ctx a then b
  else if is_cfalse ctx b then a
  else if is_ctrue ctx a then neg b
  else if is_ctrue ctx b then neg a
  else if a = b then lit_false ctx
  else if a = neg b then lit_true ctx
  else begin
    let o = fresh_lit ctx in
    Sat.add_clause ctx.sat [| neg a; neg b; neg o |];
    Sat.add_clause ctx.sat [| a; b; neg o |];
    Sat.add_clause ctx.sat [| a; neg b; o |];
    Sat.add_clause ctx.sat [| neg a; b; o |];
    o
  end

let g_eqbit ctx a b = neg (g_xor ctx a b)

(* if c then t else e *)
let g_mux ctx c t e =
  if is_ctrue ctx c then t
  else if is_cfalse ctx c then e
  else if t = e then t
  else begin
    let o = fresh_lit ctx in
    Sat.add_clause ctx.sat [| neg c; neg t; o |];
    Sat.add_clause ctx.sat [| neg c; t; neg o |];
    Sat.add_clause ctx.sat [| c; neg e; o |];
    Sat.add_clause ctx.sat [| c; e; neg o |];
    o
  end

(* --- vector circuits ---------------------------------------------------- *)

let vec_const ctx ~width v =
  Array.init width (fun i -> const_lit ctx (Int64.logand (Int64.shift_right_logical v i) 1L = 1L))

let vec_not ctx a =
  ignore ctx;
  Array.map neg a

(* Ripple-carry addition with explicit carry-in literal. *)
let vec_add_carry ctx a b cin =
  let w = Array.length a in
  let out = Array.make w (lit_false ctx) in
  let carry = ref cin in
  for i = 0 to w - 1 do
    let x = a.(i) and y = b.(i) in
    let xy = g_xor ctx x y in
    out.(i) <- g_xor ctx xy !carry;
    carry := g_or ctx (g_and ctx x y) (g_and ctx !carry xy)
  done;
  out

let vec_add ctx a b = vec_add_carry ctx a b (lit_false ctx)
let vec_sub ctx a b = vec_add_carry ctx a (vec_not ctx b) (lit_true ctx)
let vec_neg ctx a = vec_add_carry ctx (vec_not ctx a) (vec_const ctx ~width:(Array.length a) 0L) (lit_true ctx)

let vec_mul ctx a b =
  let w = Array.length a in
  let acc = ref (vec_const ctx ~width:w 0L) in
  for i = 0 to w - 1 do
    (* addend = (b << i) AND-masked by a_i, truncated to w bits *)
    let addend =
      Array.init w (fun j -> if j < i then lit_false ctx else g_and ctx a.(i) b.(j - i))
    in
    acc := vec_add ctx !acc addend
  done;
  !acc

(* Unsigned less-than: scan from the most significant bit. *)
let vec_ult ctx a b =
  let w = Array.length a in
  let lt = ref (lit_false ctx) in
  for i = 0 to w - 1 do
    (* invariant: !lt holds a <_[0,i) b *)
    let bit_lt = g_and ctx (neg a.(i)) b.(i) in
    let bit_eq = g_eqbit ctx a.(i) b.(i) in
    lt := g_or ctx bit_lt (g_and ctx bit_eq !lt)
  done;
  !lt

let vec_eq ctx a b =
  let acc = ref (lit_true ctx) in
  Array.iteri (fun i x -> acc := g_and ctx !acc (g_eqbit ctx x b.(i))) a;
  !acc

let flip_msb ctx a =
  ignore ctx;
  let a' = Array.copy a in
  let w = Array.length a' in
  a'.(w - 1) <- neg a'.(w - 1);
  a'

let vec_shift_const ctx a k ~fill =
  ignore ctx;
  let w = Array.length a in
  if k >= w || -k >= w then Array.make w fill
  else
    Array.init w (fun i ->
        if k >= 0 then if i < k then fill else a.(i - k) (* left shift *)
        else if i - k < w then a.(i - k)
        else fill)

(* Barrel shifter.  [dir] is [`Left] or [`Right]; [fill] is the literal
   shifted in.  The shift amount [b] has the same width as [a]; amounts
   >= width yield all-[fill]. *)
let vec_shift ctx a b ~dir ~fill =
  let w = Array.length a in
  let stages = ref [] in
  let k = ref 0 in
  while 1 lsl !k < w do
    stages := !k :: !stages;
    incr k
  done;
  let stages = List.rev !stages in
  let cur = ref (Array.copy a) in
  List.iter
    (fun st ->
      let amount = 1 lsl st in
      let shifted =
        match dir with
        | `Left -> vec_shift_const ctx !cur amount ~fill
        | `Right -> vec_shift_const ctx !cur (-amount) ~fill
      in
      cur := Array.mapi (fun i orig -> g_mux ctx b.(st) shifted.(i) orig) !cur)
    stages;
  (* if any amount bit at position >= log2(w) is set, the result is fill *)
  let too_big = ref (lit_false ctx) in
  for i = 0 to Array.length b - 1 do
    if i >= 62 || 1 lsl i >= w then too_big := g_or ctx !too_big b.(i)
  done;
  Array.map (fun l -> g_mux ctx !too_big fill l) !cur

(* --- expression translation ---------------------------------------------- *)

let sym_vector ctx id w =
  match Hashtbl.find_opt ctx.sym_bits id with
  | Some vars ->
    assert (Array.length vars = w);
    Array.map (fun v -> Sat.lit ~positive:true v) vars
  | None ->
    let vars = Array.init w (fun _ -> ctx_new_var ctx) in
    Hashtbl.replace ctx.sym_bits id vars;
    Array.map (fun v -> Sat.lit ~positive:true v) vars

(* Assert [cond -> (a = b)] bitwise. *)
let imply_vec_eq ctx cond a b =
  Array.iteri
    (fun i x ->
      let e = g_eqbit ctx x b.(i) in
      Sat.add_clause ctx.sat [| neg cond; e |])
    a

let rec translate ctx (e : Expr.t) : int array =
  match Etbl.find_opt ctx.cache e with
  | Some (bits, idx) ->
    note_ref ctx idx;
    bits
  | None ->
    let bits, idx = in_frame ctx (fun () -> translate_uncached ctx e) in
    Etbl.replace ctx.cache e (bits, idx);
    note_ref ctx idx;
    bits

and divmod ctx a b =
  match Hashtbl.find_opt ctx.divmod_cache (Expr.id a, Expr.id b) with
  | Some (q, r, did) ->
    note_ref ctx did;
    (q, r)
  | None ->
    let (q, r), did = in_frame ctx (fun () -> divmod_uncached ctx a b) in
    Hashtbl.replace ctx.divmod_cache (Expr.id a, Expr.id b) (q, r, did);
    note_ref ctx did;
    (q, r)

and divmod_uncached ctx a b =
  let w = Expr.width a in
  let av = translate ctx a and bv = translate ctx b in
  let q = Array.init w (fun _ -> fresh_lit ctx) in
  let r = Array.init w (fun _ -> fresh_lit ctx) in
  let bnz = Array.fold_left (fun acc l -> g_or ctx acc l) (lit_false ctx) bv in
  (* b = 0: q = all-ones, r = a (matching Expr.eval_binop) *)
  imply_vec_eq ctx (neg bnz) q (Array.make w (lit_true ctx));
  imply_vec_eq ctx (neg bnz) r av;
  (* b <> 0: a = q*b + r at double width (no wraparound), and r < b *)
  let pad v = Array.append v (Array.make w (lit_false ctx)) in
  let prod = vec_mul ctx (pad q) (pad bv) in
  let sum = vec_add ctx prod (pad r) in
  imply_vec_eq ctx bnz sum (pad av);
  let rlt = vec_ult ctx r bv in
  Sat.add_clause ctx.sat [| neg bnz; rlt |];
  (q, r)

and translate_uncached ctx (e : Expr.t) : int array =
  match e.Expr.node with
  | Expr.Const { width; value } -> vec_const ctx ~width value
  | Expr.Sym { id; width; _ } -> sym_vector ctx id width
  | Expr.Unop (Expr.Not, e1) -> vec_not ctx (translate ctx e1)
  | Expr.Unop (Expr.Neg, e1) -> vec_neg ctx (translate ctx e1)
  | Expr.Binop (op, a, b) -> translate_binop ctx op a b
  | Expr.Ite (c, a, b) ->
    let cv = translate ctx c in
    let av = translate ctx a and bv = translate ctx b in
    Array.mapi (fun i x -> g_mux ctx cv.(0) x bv.(i)) av
  | Expr.Extract { e = e1; off; len } ->
    let v = translate ctx e1 in
    Array.sub v off len
  | Expr.Zext (e1, w) ->
    let v = translate ctx e1 in
    Array.append v (Array.make (w - Array.length v) (lit_false ctx))
  | Expr.Sext (e1, w) ->
    let v = translate ctx e1 in
    let msb = v.(Array.length v - 1) in
    Array.append v (Array.make (w - Array.length v) msb)

and translate_binop ctx op a b =
  let bin f =
    let av = translate ctx a and bv = translate ctx b in
    f av bv
  in
  match op with
  | Expr.Add -> bin (vec_add ctx)
  | Expr.Sub -> bin (vec_sub ctx)
  | Expr.Mul -> bin (vec_mul ctx)
  | Expr.Udiv -> fst (divmod ctx a b)
  | Expr.Urem -> snd (divmod ctx a b)
  | Expr.Sdiv | Expr.Srem ->
    invalid_arg "Cnf.translate: signed div/rem must be lowered first (Simplify.lower)"
  | Expr.And -> bin (fun av bv -> Array.mapi (fun i x -> g_and ctx x bv.(i)) av)
  | Expr.Or -> bin (fun av bv -> Array.mapi (fun i x -> g_or ctx x bv.(i)) av)
  | Expr.Xor -> bin (fun av bv -> Array.mapi (fun i x -> g_xor ctx x bv.(i)) av)
  | Expr.Shl -> bin (fun av bv -> vec_shift ctx av bv ~dir:`Left ~fill:(lit_false ctx))
  | Expr.Lshr -> bin (fun av bv -> vec_shift ctx av bv ~dir:`Right ~fill:(lit_false ctx))
  | Expr.Ashr ->
    bin (fun av bv ->
        let msb = av.(Array.length av - 1) in
        vec_shift ctx av bv ~dir:`Right ~fill:msb)
  | Expr.Ult -> bin (fun av bv -> [| vec_ult ctx av bv |])
  | Expr.Ule -> bin (fun av bv -> [| neg (vec_ult ctx bv av) |])
  | Expr.Slt -> bin (fun av bv -> [| vec_ult ctx (flip_msb ctx av) (flip_msb ctx bv) |])
  | Expr.Sle -> bin (fun av bv -> [| neg (vec_ult ctx (flip_msb ctx bv) (flip_msb ctx av)) |])
  | Expr.Eq -> bin (fun av bv -> [| vec_eq ctx av bv |])
  | Expr.Concat -> bin (fun av bv -> Array.append bv av)

(* Assert that a width-1 expression is true. *)
let assert_expr ctx e =
  let e = Simplify.lower e in
  assert (Expr.width e = 1);
  let bits = translate ctx e in
  Sat.add_clause ctx.sat [| bits.(0) |]

(* Activation-guarded assertion for persistent contexts: translate [e]
   (hitting the cross-query translation cache) and add the single guarded
   clause [not a \/ root], inert until [a] is assumed.  Keyed on the
   pre-lowering term, since that is what re-occurring constraints
   present.  Returns the activation literal and whether the group was
   newly blasted. *)
let activate ctx e =
  match Etbl.find_opt ctx.groups e with
  | Some (a, _) -> (a, false)
  | None ->
    let lowered = Simplify.lower e in
    assert (Expr.width lowered = 1);
    let a, did =
      framed ctx (fun () ->
          let bits = translate ctx lowered in
          let a = fresh_lit ctx in
          (* the guard clause must close before the frame does, so it
             lands in the group's clause range and gets marked with the
             cone *)
          Sat.add_clause ctx.sat [| neg a; bits.(0) |];
          a)
    in
    Etbl.replace ctx.groups e (a, did);
    (a, true)

let solve ctx = Sat.solve ctx.sat

let recording ctx f = fst (framed ctx f)

(* Mark the transitive cone of dep node [idx] as relevant in the SAT
   core.  Pure array traversal: the visited stamp lives in a dense array
   indexed by dep slot, so re-marking on every query stays cheap. *)
let rec mark_dep ctx idx =
  if ctx.walked.(idx) <> ctx.mark_gen then begin
    ctx.walked.(idx) <- ctx.mark_gen;
    let d = ctx.deps.(idx) in
    Array.iter (Sat.mark_var ctx.sat) d.dvars;
    for ci = d.dclo to d.dchi - 1 do
      Sat.mark_clause ctx.sat ci
    done;
    Array.iter (mark_dep ctx) d.drefs
  end

(* Query the conjunction of previously {!activate}d constraints: assume
   their activation literals and restrict branching to the union of their
   cones (every other variable in the instance belongs to circuitry the
   query cannot depend on — switched-off groups stay satisfiable with
   their activation literal false). *)
let solve_activated ctx es =
  let gs =
    List.map
      (fun e ->
        match Etbl.find_opt ctx.groups e with
        | Some g -> g
        | None -> invalid_arg "Cnf.solve_activated: constraint not activated")
      es
  in
  Sat.begin_marks ctx.sat;
  ctx.mark_gen <- ctx.mark_gen + 1;
  Sat.mark_var ctx.sat (Sat.var_of_lit ctx.true_lit);
  List.iter
    (fun (a, did) ->
      Sat.mark_var ctx.sat (Sat.var_of_lit a);
      mark_dep ctx did)
    gs;
  Sat.solve_with_assumptions ctx.sat (List.map fst gs)
let num_clauses ctx = Sat.num_clauses ctx.sat
let num_vars ctx = Sat.num_vars ctx.sat
let num_groups ctx = Etbl.length ctx.groups
let sat_stats ctx = Sat.stats ctx.sat
let is_ok ctx = Sat.is_ok ctx.sat

(* Read back the value of symbol [id] (width [w]) from the satisfying
   assignment; returns [None] if the symbol never appeared in a constraint. *)
let sym_value ctx id =
  match Hashtbl.find_opt ctx.sym_bits id with
  | None -> None
  | Some vars ->
    let v = ref 0L in
    Array.iteri
      (fun i var -> if Sat.value ctx.sat var then v := Int64.logor !v (Int64.shift_left 1L i))
      vars;
    Some !v

let sym_ids ctx = Hashtbl.fold (fun id _ acc -> id :: acc) ctx.sym_bits []
