(* Tests for the SMT substrate: expression evaluation, the simplifier, the
   SAT core, bit blasting, and the query orchestrator.  The property tests
   cross-check the symbolic pipeline against brute-force enumeration on
   small widths. *)

module E = Smt.Expr

let i8 v = E.const ~width:8 (Int64.of_int v)
let i32 v = E.const ~width:32 (Int64.of_int v)

(* --- deterministic symbol pool for the generators --------------------- *)

let sym_a = E.fresh_sym ~name:"a" 8
let sym_b = E.fresh_sym ~name:"b" 8
let sym_c = E.fresh_sym ~name:"c" 8
let sym_d = E.fresh_sym ~name:"d" 8

let sym_id (e : E.t) = match e.node with E.Sym { id; _ } -> id | _ -> assert false

let lookup_of_pair (va, vb) id =
  if id = sym_id sym_a then Some va else if id = sym_id sym_b then Some vb else None

(* --- random expression generator --------------------------------------- *)

let gen_expr_over syms =
  let open QCheck2.Gen in
  let leaf w =
    oneof
      [
        map (fun v -> E.const ~width:w (Int64.of_int v)) (int_bound 255);
        (if w = 8 then oneofl syms else map (fun v -> E.const ~width:w (Int64.of_int v)) (int_bound 255));
      ]
  in
  let binops =
    [
      E.Add; E.Sub; E.Mul; E.Udiv; E.Urem; E.Sdiv; E.Srem; E.And; E.Or; E.Xor; E.Shl;
      E.Lshr; E.Ashr;
    ]
  in
  let cmpops = [ E.Ult; E.Ule; E.Slt; E.Sle; E.Eq ] in
  (* Generates width-8 expressions over [syms]. *)
  let rec expr8 depth =
    if depth = 0 then leaf 8
    else
      frequency
        [
          (2, leaf 8);
          ( 6,
            let* op = oneofl binops in
            let* a = expr8 (depth - 1) in
            let* b = expr8 (depth - 1) in
            return (E.binop op a b) );
          ( 1,
            let* op = oneofl [ E.Not; E.Neg ] in
            let* a = expr8 (depth - 1) in
            return (E.unop op a) );
          ( 1,
            let* op = oneofl cmpops in
            let* a = expr8 (depth - 1) in
            let* b = expr8 (depth - 1) in
            let* t = expr8 (depth - 1) in
            let* e = expr8 (depth - 1) in
            return (E.ite (E.binop op a b) t e) );
          ( 1,
            let* a = expr8 (depth - 1) in
            let* off = int_bound 4 in
            return (E.zext (E.extract a ~off ~len:4) 8) );
          ( 1,
            let* a = expr8 (depth - 1) in
            return (E.sext (E.extract a ~off:0 ~len:4) 8) );
        ]
  in
  expr8 3

let gen_expr = gen_expr_over [ sym_a; sym_b ]

let gen_bool_over syms =
  let open QCheck2.Gen in
  let* a = gen_expr_over syms in
  let* b = gen_expr_over syms in
  let* op = oneofl [ E.Ult; E.Ule; E.Slt; E.Sle; E.Eq ] in
  return (E.binop op a b)

let gen_bool_expr = gen_bool_over [ sym_a; sym_b ]

let gen_byte = QCheck2.Gen.map Int64.of_int (QCheck2.Gen.int_bound 255)

(* --- expression unit tests ---------------------------------------------- *)

let test_eval_arith () =
  let e = E.add (i8 200) (i8 100) in
  Alcotest.(check int64) "wraparound add" 44L (E.eval (fun _ -> None) e);
  let e = E.mul (i8 16) (i8 16) in
  Alcotest.(check int64) "wraparound mul" 0L (E.eval (fun _ -> None) e);
  let e = E.binop E.Udiv (i8 7) (i8 0) in
  Alcotest.(check int64) "udiv by zero is all-ones" 255L (E.eval (fun _ -> None) e);
  let e = E.binop E.Srem (i8 7) (i8 0) in
  Alcotest.(check int64) "srem by zero is dividend" 7L (E.eval (fun _ -> None) e)

let test_eval_signed () =
  let m128 = i8 128 in
  let e = E.binop E.Sdiv m128 (i8 255) in
  (* INT_MIN / -1 wraps to INT_MIN *)
  Alcotest.(check int64) "sdiv INT_MIN -1" 128L (E.eval (fun _ -> None) e);
  let e = E.slt m128 (i8 0) in
  Alcotest.(check int64) "-128 < 0 signed" 1L (E.eval (fun _ -> None) e);
  let e = E.ult m128 (i8 0) in
  Alcotest.(check int64) "128 < 0 unsigned is false" 0L (E.eval (fun _ -> None) e)

let test_extract_concat () =
  let e = E.concat (i8 0xAB) (i8 0xCD) in
  Alcotest.(check int) "concat width" 16 (E.width e);
  Alcotest.(check int64) "concat value" 0xABCDL (E.eval (fun _ -> None) e);
  let hi = E.extract e ~off:8 ~len:8 in
  Alcotest.(check int64) "extract hi" 0xABL (E.eval (fun _ -> None) hi);
  let lo = E.extract e ~off:0 ~len:8 in
  Alcotest.(check int64) "extract lo" 0xCDL (E.eval (fun _ -> None) lo)

let test_width_errors () =
  Alcotest.check_raises "mixed widths" (E.Width_error "binop operand widths differ: 8 vs 32")
    (fun () -> ignore (E.add (i8 1) (i32 1)))

let test_sext_zext () =
  let e = E.sext (i8 0x80) 32 in
  Alcotest.(check int64) "sext" 0xFFFFFF80L (E.eval (fun _ -> None) e);
  let e = E.zext (i8 0x80) 32 in
  Alcotest.(check int64) "zext" 0x80L (E.eval (fun _ -> None) e)

(* --- simplifier --------------------------------------------------------- *)

let test_simplify_identities () =
  let s = Smt.Simplify.simplify in
  Alcotest.(check bool) "x+0 = x" true (s (E.add sym_a (i8 0)) = sym_a);
  Alcotest.(check bool) "x*1 = x" true (s (E.mul sym_a (i8 1)) = sym_a);
  Alcotest.(check bool) "x-x = 0" true (s (E.sub sym_a sym_a) = i8 0);
  Alcotest.(check bool) "x^x = 0" true (s (E.binop E.Xor sym_a sym_a) = i8 0);
  Alcotest.(check bool) "x=x is true" true (E.is_true (s (E.eq sym_a sym_a)));
  Alcotest.(check bool) "x<x is false" true (E.is_false (s (E.ult sym_a sym_a)));
  (* commutative normalization puts the constant on the right *)
  match (s (E.add (i8 1) sym_a)).E.node with
  | E.Binop (E.Add, { node = E.Sym _; _ }, { node = E.Const _; _ }) -> ()
  | _ -> Alcotest.failf "expected (add sym const), got %s" (E.to_string (s (E.add (i8 1) sym_a)))

let prop_simplify_preserves_semantics =
  QCheck2.Test.make ~count:500 ~name:"simplify preserves eval"
    QCheck2.Gen.(triple gen_expr gen_byte gen_byte)
    (fun (e, va, vb) ->
      let lookup = lookup_of_pair (va, vb) in
      E.eval lookup e = E.eval lookup (Smt.Simplify.simplify e))

let prop_lower_preserves_semantics =
  QCheck2.Test.make ~count:500 ~name:"signed lowering preserves eval"
    QCheck2.Gen.(triple gen_expr gen_byte gen_byte)
    (fun (e, va, vb) ->
      let lookup = lookup_of_pair (va, vb) in
      E.eval lookup e = E.eval lookup (Smt.Simplify.lower e))

(* --- SAT core ------------------------------------------------------------- *)

let test_sat_basic () =
  let s = Smt.Sat.create () in
  let v1 = Smt.Sat.new_var s and v2 = Smt.Sat.new_var s in
  let p b v = Smt.Sat.lit ~positive:b v in
  Smt.Sat.add_clause s [| p true v1; p true v2 |];
  Smt.Sat.add_clause s [| p false v1; p true v2 |];
  Smt.Sat.add_clause s [| p true v1; p false v2 |];
  (match Smt.Sat.solve s with
  | Smt.Sat.Satisfiable -> ()
  | Smt.Sat.Unsatisfiable -> Alcotest.fail "expected sat");
  Alcotest.(check bool) "v1 and v2 both true" true (Smt.Sat.value s v1 && Smt.Sat.value s v2)

let test_sat_unsat () =
  let s = Smt.Sat.create () in
  let v1 = Smt.Sat.new_var s in
  let p b v = Smt.Sat.lit ~positive:b v in
  Smt.Sat.add_clause s [| p true v1 |];
  Smt.Sat.add_clause s [| p false v1 |];
  match Smt.Sat.solve s with
  | Smt.Sat.Unsatisfiable -> ()
  | Smt.Sat.Satisfiable -> Alcotest.fail "expected unsat"

(* Pigeonhole: 3 pigeons, 2 holes — classically unsatisfiable and requires
   actual search, not just unit propagation. *)
let test_sat_pigeonhole () =
  let s = Smt.Sat.create () in
  let var = Array.init 3 (fun _ -> Array.init 2 (fun _ -> Smt.Sat.new_var s)) in
  let p b v = Smt.Sat.lit ~positive:b v in
  for i = 0 to 2 do
    Smt.Sat.add_clause s [| p true var.(i).(0); p true var.(i).(1) |]
  done;
  for h = 0 to 1 do
    for i = 0 to 2 do
      for j = i + 1 to 2 do
        Smt.Sat.add_clause s [| p false var.(i).(h); p false var.(j).(h) |]
      done
    done
  done;
  match Smt.Sat.solve s with
  | Smt.Sat.Unsatisfiable -> ()
  | Smt.Sat.Satisfiable -> Alcotest.fail "pigeonhole must be unsat"

(* Random 3-CNF instances cross-checked against brute force. *)
let prop_sat_matches_bruteforce =
  let gen =
    let open QCheck2.Gen in
    let* nvars = int_range 3 6 in
    let* nclauses = int_range 3 24 in
    let* clauses =
      list_repeat nclauses
        (list_repeat 3
           (let* v = int_bound (nvars - 1) in
            let* sign = bool in
            return (v, sign)))
    in
    return (nvars, clauses)
  in
  QCheck2.Test.make ~count:300 ~name:"CDCL matches brute force on random 3-CNF" gen
    (fun (nvars, clauses) ->
      let brute =
        let sat = ref false in
        for m = 0 to (1 lsl nvars) - 1 do
          if
            (not !sat)
            && List.for_all
                 (List.exists (fun (v, sign) -> (m lsr v) land 1 = if sign then 1 else 0))
                 clauses
          then sat := true
        done;
        !sat
      in
      let s = Smt.Sat.create () in
      let vars = Array.init nvars (fun _ -> Smt.Sat.new_var s) in
      List.iter
        (fun clause ->
          Smt.Sat.add_clause s
            (Array.of_list (List.map (fun (v, sign) -> Smt.Sat.lit ~positive:sign vars.(v)) clause)))
        clauses;
      let got = match Smt.Sat.solve s with Smt.Sat.Satisfiable -> true | Smt.Sat.Unsatisfiable -> false in
      got = brute)

(* --- incremental SAT --------------------------------------------------------- *)

(* One persistent instance answering several assumption-based queries in
   sequence must agree, on every query, with a fresh instance that gets
   the same assumptions as unit clauses.  The learnt clauses, activities
   and saved phases accumulated by the earlier queries must not leak into
   later verdicts, and an unsat-under-assumptions answer must not poison
   the shared instance. *)
let prop_assumptions_match_units =
  let gen =
    let open QCheck2.Gen in
    let* nvars = int_range 3 6 in
    let* nclauses = int_range 3 18 in
    let lit_gen = pair (int_bound (nvars - 1)) bool in
    let* clauses = list_repeat nclauses (list_repeat 3 lit_gen) in
    let* assump_sets = list_size (int_range 1 6) (list_size (int_range 1 3) lit_gen) in
    return (nvars, clauses, assump_sets)
  in
  QCheck2.Test.make ~count:300
    ~name:"assumption queries match unit-clause solves across one instance" gen
    (fun (nvars, clauses, assump_sets) ->
      let build () =
        let s = Smt.Sat.create () in
        let vars = Array.init nvars (fun _ -> Smt.Sat.new_var s) in
        List.iter
          (fun clause ->
            Smt.Sat.add_clause s
              (Array.of_list (List.map (fun (v, sign) -> Smt.Sat.lit ~positive:sign vars.(v)) clause)))
          clauses;
        (s, vars)
      in
      let persistent, pvars = build () in
      List.for_all
        (fun assumps ->
          let lits vars =
            List.map (fun (v, sign) -> Smt.Sat.lit ~positive:sign vars.(v)) assumps
          in
          let fresh, fvars = build () in
          List.iter (fun l -> Smt.Sat.add_clause fresh [| l |]) (lits fvars);
          let expected = Smt.Sat.solve fresh in
          let got = Smt.Sat.solve_with_assumptions persistent (lits pvars) in
          got = expected)
        assump_sets)

(* The list-based {!Smt.Sat.add_clause} the in-place array version
   replaced, kept as the reference: given the root assignment ([value l]
   is [Some b] for an assigned literal), what adding [lits] does. *)
module Ref_add_clause = struct
  let outcome value lits =
    let lits = List.sort_uniq compare lits in
    if List.exists (fun l -> List.exists (fun l' -> l' = l lxor 1) lits) lits then `Skip
    else
      let lits = List.filter (fun l -> value l <> Some false) lits in
      if List.exists (fun l -> value l = Some true) lits then `Skip
      else match lits with [] -> `Empty | [ l ] -> `Unit l | _ -> `Clause (Array.of_list lits)
end

(* Root units on distinct variables, then one clause with duplicates,
   complementary pairs and root-false/true literals mixed in: the stored
   clause (or unit, skip, contradiction) equals the reference's. *)
let prop_add_clause_matches_list =
  let gen =
    let open QCheck2.Gen in
    let* nvars = int_range 2 6 in
    let lit_gen = pair (int_bound (nvars - 1)) bool in
    let* units = list_size (int_bound nvars) lit_gen in
    let* clause = list_size (int_bound 7) lit_gen in
    return (nvars, units, clause)
  in
  QCheck2.Test.make ~count:500 ~name:"array add_clause stores what the list version stored" gen
    (fun (nvars, units, clause) ->
      let s = Smt.Sat.create () in
      let vars = Array.init nvars (fun _ -> Smt.Sat.new_var s) in
      let lit (v, sign) = Smt.Sat.lit ~positive:sign vars.(v) in
      let units = List.sort_uniq (fun (v, _) (v', _) -> compare v v') units in
      List.iter (fun u -> Smt.Sat.add_clause s [| lit u |]) units;
      let value l =
        List.find_map
          (fun (v, sign) ->
            if vars.(v) = Smt.Sat.var_of_lit l then Some (sign = Smt.Sat.lit_sign l) else None)
          units
      in
      let lits = List.map lit clause in
      let n0 = Smt.Sat.num_clauses s in
      Smt.Sat.add_clause s (Array.of_list lits);
      let unchanged = Smt.Sat.num_clauses s = n0 && Smt.Sat.is_ok s in
      match Ref_add_clause.outcome value lits with
      | `Skip -> unchanged
      | `Empty -> not (Smt.Sat.is_ok s)
      | `Unit l ->
        unchanged
        && Smt.Sat.solve s = Smt.Sat.Satisfiable
        && Smt.Sat.value s (Smt.Sat.var_of_lit l) = Smt.Sat.lit_sign l
      | `Clause c -> Smt.Sat.num_clauses s = n0 + 1 && Smt.Sat.clause s n0 = c)

(* A marked solve leaves unmarked variables off the branching heap; an
   unmarked [solve] on the same instance must still assign every
   variable.  The unmarked clause [z \/ w] is false under the all-false
   default, so a solve that skipped z and w would fail the check. *)
let test_unmarked_solve_after_marked () =
  let s = Smt.Sat.create () in
  let p b v = Smt.Sat.lit ~positive:b v in
  let x = Smt.Sat.new_var s and y = Smt.Sat.new_var s and g = Smt.Sat.new_var s in
  let a = Smt.Sat.new_var s and z = Smt.Sat.new_var s and w = Smt.Sat.new_var s in
  (* cone: g = x /\ y guarded by activation a; outside it: z \/ w *)
  let cone =
    [
      [ p false x; p false y; p true g ];
      [ p true x; p false g ];
      [ p true y; p false g ];
      [ p false a; p true g ];
    ]
  in
  let rest = [ [ p true z; p true w ] ] in
  List.iter (fun c -> Smt.Sat.add_clause s (Array.of_list c)) (cone @ rest);
  Smt.Sat.begin_marks s;
  List.iter (Smt.Sat.mark_var s) [ x; y; g; a ];
  List.iteri (fun ci _ -> Smt.Sat.mark_clause s ci) cone;
  Alcotest.(check bool) "marked solve sat" true
    (Smt.Sat.solve_with_assumptions s [ p true a ] = Smt.Sat.Satisfiable);
  Alcotest.(check bool) "cone assigned" true (Smt.Sat.value s x && Smt.Sat.value s y);
  Alcotest.(check bool) "unmarked solve sat" true (Smt.Sat.solve s = Smt.Sat.Satisfiable);
  let holds l = Smt.Sat.value s (Smt.Sat.var_of_lit l) = Smt.Sat.lit_sign l in
  Alcotest.(check bool) "every clause satisfied" true
    (List.for_all (List.exists holds) (cone @ rest))

(* --- pinned search and allocation ---------------------------------------

   Refactoring the CDCL core's data structures must keep its search step
   for step: the order in which a literal's watches are visited decides
   which clause propagates or conflicts first, and with it every learnt
   clause, decision, propagation count and model.  The counts and models
   below were recorded from the list-based watch implementation; a change
   of scan order or of learnt-literal order moves them. *)

let sat_counts (st : Smt.Sat.stats) = [ st.decisions; st.propagations; st.conflicts; st.learned ]

(* PHP(5,4): five pigeons, four holes. *)
let test_pinned_pigeonhole () =
  let s = Smt.Sat.create () in
  let p = Array.init 5 (fun _ -> Array.init 4 (fun _ -> Smt.Sat.new_var s)) in
  let lit b v = Smt.Sat.lit ~positive:b v in
  for i = 0 to 4 do
    Smt.Sat.add_clause s (Array.init 4 (fun h -> lit true p.(i).(h)))
  done;
  for h = 0 to 3 do
    for i = 0 to 4 do
      for j = i + 1 to 4 do
        Smt.Sat.add_clause s [| lit false p.(i).(h); lit false p.(j).(h) |]
      done
    done
  done;
  Alcotest.(check bool) "unsat" true (Smt.Sat.solve s = Smt.Sat.Unsatisfiable);
  Alcotest.(check (list int)) "decisions, propagations, conflicts, learned" [ 35; 296; 29; 28 ]
    (sat_counts (Smt.Sat.stats s))

(* 504 random 3-literal clauses over 120 variables (ratio 4.2) from a
   fixed LCG, so the instance does not depend on [Random]. *)
let test_pinned_random_3sat () =
  let state = ref 1 in
  let next n =
    state := (!state * 0x5DEECE66D) + 11;
    (!state lsr 17) mod n
  in
  let s = Smt.Sat.create () in
  let vars = Array.init 120 (fun _ -> Smt.Sat.new_var s) in
  for _ = 1 to 504 do
    Smt.Sat.add_clause s
      (Array.init 3 (fun _ ->
           let v = next 120 in
           Smt.Sat.lit ~positive:(next 2 = 0) vars.(v)))
  done;
  Alcotest.(check bool) "sat" true (Smt.Sat.solve s = Smt.Sat.Satisfiable);
  Alcotest.(check (list int)) "decisions, propagations, conflicts, learned" [ 294; 5430; 204; 204 ]
    (sat_counts (Smt.Sat.stats s));
  Alcotest.(check string) "model"
    "111001110110001101000011011011111010110111001011111111001010000000010010001100000111101100101010010011001010001011010111"
    (String.init 120 (fun i -> if Smt.Sat.value s vars.(i) then '1' else '0'))

(* A persistent bit-blasted context over three byte symbols: every
   constraint is activated up front, then a fixed sequence of
   [solve_activated] queries switches subsets of them on under marks. *)
let pin_a = E.sym_with_id ~id:9001 ~name:"pin_a" 8
let pin_b = E.sym_with_id ~id:9002 ~name:"pin_b" 8
let pin_c = E.sym_with_id ~id:9003 ~name:"pin_c" 8

let pinned_ctx () =
  let ks =
    [|
      E.eq (E.mul pin_a pin_b) (i8 143);
      E.ult (E.add pin_a pin_c) (i8 50);
      E.eq (E.binop E.Xor pin_b pin_c) (i8 0x5a);
      E.ugt pin_a pin_b;
      E.eq (E.binop E.Urem pin_a (i8 7)) (i8 3);
      E.eq pin_c (i8 200);
      E.eq pin_a pin_b;
    |]
  in
  let ctx = Smt.Cnf.create () in
  Array.iter (fun k -> ignore (Smt.Cnf.activate ctx k)) ks;
  let queries =
    List.map (List.map (Array.get ks))
      [ [ 0 ]; [ 0; 3 ]; [ 1; 2 ]; [ 0; 1; 2 ]; [ 4; 3 ]; [ 0; 5 ]; [ 2; 5; 1 ]; [ 0; 4; 1 ];
        [ 0; 2; 3; 4 ]; [ 0; 6 ]; [ 6; 2; 1 ] ]
  in
  (ctx, queries)

let test_pinned_persistent () =
  let ctx, queries = pinned_ctx () in
  let row q =
    let model =
      match Smt.Cnf.solve_activated ctx q with
      | Smt.Sat.Satisfiable ->
        let value e = Int64.to_int (Option.get (Smt.Cnf.sym_value ctx (sym_id e))) in
        Some (List.map value [ pin_a; pin_b; pin_c ])
      | Smt.Sat.Unsatisfiable -> None
    in
    (sat_counts (Smt.Cnf.sat_stats ctx), model)
  in
  let row_t = Alcotest.(pair (list int) (option (list int))) in
  List.iter2
    (fun q expected -> Alcotest.check row_t "cumulative counts, model" expected (row q))
    queries
    [
      ([ 7; 193; 0; 0 ], Some [ 1; 143; 0 ]);
      ([ 13; 403; 0; 0 ], Some [ 129; 15; 0 ]);
      ([ 26; 489; 0; 0 ], Some [ 129; 207; 149 ]);
      ([ 34; 808; 2; 2 ], Some [ 225; 111; 53 ]);
      ([ 49; 1015; 2; 2 ], Some [ 227; 111; 0 ]);
      ([ 60; 1210; 2; 2 ], Some [ 225; 111; 200 ]);
      ([ 64; 1304; 2; 2 ], Some [ 57; 146; 200 ]);
      ([ 94; 2044; 6; 6 ], Some [ 101; 227; 156 ]);
      ([ 126; 3312; 21; 21 ], Some [ 241; 127; 37 ]);
      ([ 130; 3439; 25; 25 ], None);
      ([ 157; 3697; 31; 31 ], None);
    ];
  (* a second pass over the same queries, on everything the first taught *)
  List.iter (fun q -> ignore (Smt.Cnf.solve_activated ctx q)) queries;
  Alcotest.(check (list int)) "counts after a second pass" [ 277; 7003; 51; 51 ]
    (sat_counts (Smt.Cnf.sat_stats ctx))

(* The same context warmed up by one pass over the queries, then a second
   pass measured: its solves must allocate nothing in the major heap (no
   per-conflict scratch array, no arena growth) and under 3 minor words
   per propagation (no list cell per watch visit; the list-based watches
   took 27).  Each solve starts on an empty minor heap and allocates far
   less than one, so no promotion is counted as a major word. *)
let test_persistent_allocation () =
  let ctx, queries = pinned_ctx () in
  List.iter (fun q -> ignore (Smt.Cnf.solve_activated ctx q)) queries;
  let props0 = (Smt.Cnf.sat_stats ctx).propagations in
  let minor = ref 0.0 and major = ref 0.0 in
  List.iter
    (fun q ->
      Gc.minor ();
      let mi0 = Gc.minor_words () and _, _, ma0 = Gc.counters () in
      ignore (Smt.Cnf.solve_activated ctx q);
      let mi1 = Gc.minor_words () and _, _, ma1 = Gc.counters () in
      minor := !minor +. (mi1 -. mi0);
      major := !major +. (ma1 -. ma0))
    queries;
  let props = (Smt.Cnf.sat_stats ctx).propagations - props0 in
  Alcotest.(check bool) "measured pass propagates" true (props > 1000);
  Alcotest.(check (float 0.0)) "major words" 0.0 !major;
  let per_prop = !minor /. float_of_int props in
  if per_prop >= 3.0 then Alcotest.failf "%.2f minor words per propagation (bound 3)" per_prop

(* --- bit blasting ----------------------------------------------------------- *)

(* A one-shot context records no cone dependencies.  Recording must not
   change what is emitted: the same variables, the same clauses, and so
   the same solve and model as a context translated under recording. *)
let prop_untracked_matches_tracked =
  QCheck2.Test.make ~count:100 ~name:"untracked one-shot context = tracked one"
    QCheck2.Gen.(list_size (int_range 1 2) gen_bool_expr)
    (fun cs ->
      let untracked = Smt.Cnf.create () and tracked = Smt.Cnf.create () in
      List.iter (Smt.Cnf.assert_expr untracked) cs;
      Smt.Cnf.recording tracked (fun () -> List.iter (Smt.Cnf.assert_expr tracked) cs);
      let answer ctx =
        ( Smt.Cnf.num_vars ctx,
          Smt.Cnf.num_clauses ctx,
          Smt.Cnf.solve ctx,
          List.map (fun e -> Smt.Cnf.sym_value ctx (sym_id e)) [ sym_a; sym_b ] )
      in
      answer untracked = answer tracked)

(* For a random expression [e] and full assignment [sigma]:
   pinning the symbols to sigma and asserting [e = eval_sigma(e)] must be
   SAT, and asserting [e <> eval_sigma(e)] must be UNSAT. *)
let prop_cnf_agrees_with_eval =
  QCheck2.Test.make ~count:200 ~name:"bit blasting agrees with concrete eval"
    QCheck2.Gen.(triple gen_expr gen_byte gen_byte)
    (fun (e, va, vb) ->
      let lookup = lookup_of_pair (va, vb) in
      let v = E.eval lookup e in
      let pin = [ E.eq sym_a (E.const ~width:8 va); E.eq sym_b (E.const ~width:8 vb) ] in
      let expected = E.const ~width:(E.width e) v in
      let solver = Smt.Solver.create () in
      let pos =
        match Smt.Solver.check solver (E.eq e expected :: pin) with
        | Smt.Solver.Sat _ -> true
        | Smt.Solver.Unsat -> false
      in
      let negq =
        match Smt.Solver.check solver (E.ne e expected :: pin) with
        | Smt.Solver.Sat _ -> true
        | Smt.Solver.Unsat -> false
      in
      pos && not negq)

(* Satisfiability of a random boolean constraint agrees with brute-force
   enumeration of the two 8-bit symbols. *)
let prop_solver_matches_bruteforce =
  QCheck2.Test.make ~count:60 ~name:"solver verdict matches brute force" gen_bool_expr
    (fun c ->
      let brute = ref false in
      (try
         for va = 0 to 255 do
           for vb = 0 to 255 do
             if E.eval (lookup_of_pair (Int64.of_int va, Int64.of_int vb)) c = 1L then begin
               brute := true;
               raise Exit
             end
           done
         done
       with Exit -> ());
      let solver = Smt.Solver.create () in
      match Smt.Solver.check solver [ c ] with
      | Smt.Solver.Sat m -> !brute && Smt.Model.eval m c = 1L
      | Smt.Solver.Unsat -> not !brute)

(* --- solver orchestration --------------------------------------------------- *)

(* A path condition in the form the engine keeps it: members simplified,
   trivially-true members dropped. *)
let norm pc = List.filter (fun e -> not (E.is_true e)) (List.map Smt.Simplify.simplify pc)

let is_sat = function Smt.Solver.Sat _ -> true | Smt.Solver.Unsat -> false

let test_branch_feasible () =
  let solver = Smt.Solver.create () in
  let pc = norm [ E.ult sym_a (i8 10) ] in
  Alcotest.(check bool) "a < 10 and a = 5 feasible" true
    (Smt.Solver.branch_feasible solver ~pc (E.eq sym_a (i8 5)));
  Alcotest.(check bool) "a < 10 and a = 20 infeasible" false
    (Smt.Solver.branch_feasible solver ~pc (E.eq sym_a (i8 20)));
  Alcotest.(check bool) "a < 10 refutes a > 9" false
    (Smt.Solver.branch_feasible solver ~pc (E.not_ (E.ule sym_a (i8 9))))

let test_independence_slicing () =
  (* b's constraints are irrelevant to a query about a *)
  let solver = Smt.Solver.create () in
  let pc = norm [ E.ult sym_a (i8 10); E.eq sym_b (i8 77) ] in
  Alcotest.(check bool) "sliced query" true
    (Smt.Solver.branch_feasible solver ~pc (E.eq sym_a (i8 3)))

let test_cache_hits () =
  let solver = Smt.Solver.create () in
  let pc = norm [ E.ult sym_a (i8 10) ] in
  let q () = ignore (Smt.Solver.branch_feasible solver ~pc (E.eq sym_a (i8 5))) in
  q ();
  q ();
  q ();
  let st = Smt.Solver.stats solver in
  Alcotest.(check bool) "second and third queries hit a cache" true
    (st.Smt.Solver.cache_hits + st.Smt.Solver.cex_hits >= 2);
  Smt.Solver.clear_caches solver;
  q ();
  Alcotest.(check bool) "queries counted" true (st.Smt.Solver.queries = 4)

let test_deterministic_models () =
  (* the paper's replay-stable concretization (section 6): the model for a
     path condition must depend only on the constraint set, never on the
     solver's query history or cache contents *)
  let c = [ E.ult sym_a sym_b; E.ult (E.add sym_a sym_b) (i8 200) ] in
  let model_of solver =
    match Smt.Solver.check_deterministic solver c with
    | Smt.Solver.Sat m -> (Smt.Model.eval m sym_a, Smt.Model.eval m sym_b)
    | Smt.Solver.Unsat -> Alcotest.fail "expected sat"
  in
  (* two solvers with different query histories *)
  let s1 = Smt.Solver.create () in
  ignore (Smt.Solver.check s1 [ E.eq sym_a (i8 7) ]);
  ignore (Smt.Solver.branch_feasible s1 ~pc:(norm [ E.ult sym_b (i8 100) ]) (E.eq sym_b (i8 3)));
  let s2 = Smt.Solver.create () in
  ignore (Smt.Solver.check s2 [ E.ult sym_b (i8 5); E.ult sym_a (i8 9) ]);
  let m1 = model_of s1 and m2 = model_of s2 in
  Alcotest.(check (pair int64 int64)) "history-independent model" m1 m2;
  (* and one queried again after dropping its caches *)
  Smt.Solver.clear_caches s1;
  Alcotest.(check (pair int64 int64)) "cache-independent model" m1 (model_of s1)

(* Two solvers attached to one store share their satisfiability and
   deterministic answers: what one solved is a cache hit in the other.
   Dropping one solver's caches detaches it and leaves the store to the
   other; the counterexample models stay per solver throughout. *)
let test_shared_store () =
  let shared () =
    let store = Smt.Solver.Store.create () in
    let a = Smt.Solver.create () and b = Smt.Solver.create () in
    Smt.Solver.attach a store;
    Smt.Solver.attach b store;
    (a, b)
  in
  let pc = norm [ E.ult sym_a (i8 100); E.ult sym_b sym_a ] in
  let cond = E.eq sym_a (i8 50) in
  let det s =
    match Smt.Solver.check_deterministic s pc with
    | Smt.Solver.Sat m -> Some (Smt.Model.bindings m)
    | Smt.Solver.Unsat -> None
  in
  let tiers_sum what s =
    let st = Smt.Solver.stats s in
    Alcotest.(check int) (what ^ ": tiers sum to queries") st.Smt.Solver.queries
      (st.Smt.Solver.trivial + st.Smt.Solver.cache_hits + st.Smt.Solver.cex_hits
     + st.Smt.Solver.sat_calls)
  in
  let a, b = shared () in
  Alcotest.(check bool) "A answers the branch" true (Smt.Solver.branch_feasible a ~pc cond);
  Alcotest.(check bool) "B gets the same verdict" true (Smt.Solver.branch_feasible b ~pc cond);
  let sb = Smt.Solver.copy_stats b in
  Alcotest.(check (pair int int)) "B's branch was a cache hit, no SAT call" (1, 0)
    (sb.Smt.Solver.cache_hits, sb.Smt.Solver.sat_calls);
  let reference = det (Smt.Solver.create ()) in
  Alcotest.(check bool) "the pc is sat" true (reference <> None);
  (* either query order gives the unshared solver's model *)
  Alcotest.(check bool) "det through A" true (det a = reference);
  Alcotest.(check bool) "det through B after A" true (det b = reference);
  Alcotest.(check int) "B solved nothing" 0 (Smt.Solver.stats b).Smt.Solver.sat_calls;
  let a', b' = shared () in
  Alcotest.(check bool) "det through B first" true (det b' = reference);
  Alcotest.(check bool) "det through A after B" true (det a' = reference);
  Alcotest.(check int) "A solved nothing" 0 (Smt.Solver.stats a').Smt.Solver.sat_calls;
  (* B leaves; the store keeps A's answers *)
  Smt.Solver.clear_caches b;
  let hits s = (Smt.Solver.stats s).Smt.Solver.cache_hits in
  let ha = hits a and hb = hits b in
  Alcotest.(check bool) "A still hits" true (Smt.Solver.branch_feasible a ~pc cond);
  Alcotest.(check int) "A's repeat is a cache hit" (ha + 1) (hits a);
  Alcotest.(check bool) "B re-solves" true (Smt.Solver.branch_feasible b ~pc cond);
  Alcotest.(check int) "B's caches are empty" hb (hits b);
  Alcotest.(check bool) "det through the detached B" true (det b = reference);
  List.iter (fun (what, s) -> tiers_sum what s) [ ("A", a); ("B", b); ("A'", a'); ("B'", b') ]

let test_model_extraction () =
  let solver = Smt.Solver.create () in
  let c = [ E.eq (E.add sym_a sym_b) (i8 100); E.eq sym_a (i8 42) ] in
  match Smt.Solver.check solver c with
  | Smt.Solver.Unsat -> Alcotest.fail "expected sat"
  | Smt.Solver.Sat m ->
    Alcotest.(check int64) "a = 42" 42L (Smt.Model.eval m sym_a);
    Alcotest.(check int64) "b = 58" 58L (Smt.Model.eval m sym_b)

(* Regression for {!Smt.Solver.clear_caches} on the incremental path:
   dropping every cache, including the persistent SAT instance, must not
   change any verdict or deterministic model — later queries rebuild the
   clause groups from scratch and agree with a brand-new solver. *)
let test_clear_caches_rebuild () =
  let solver = Smt.Solver.create () in
  let pc = norm [ E.ult sym_a (i8 100); E.ult sym_b sym_a ] in
  let ask s =
    ( Smt.Solver.branch_feasible s ~pc (E.eq sym_a (i8 50)),
      Smt.Solver.branch_feasible s ~pc (E.ult (E.add sym_a sym_b) (i8 199)),
      Smt.Solver.fork_feasible s ~pc (E.ult sym_b (i8 99)),
      match Smt.Solver.check_deterministic s pc with
      | Smt.Solver.Sat m -> Some (Smt.Model.eval m sym_a, Smt.Model.eval m sym_b)
      | Smt.Solver.Unsat -> None )
  in
  let before = ask solver in
  let inc_before = Smt.Solver.copy_inc_stats solver in
  Alcotest.(check bool) "incremental path exercised" true
    (inc_before.Smt.Solver.assumption_solves > 0);
  Smt.Solver.clear_caches solver;
  let inc_after = Smt.Solver.copy_inc_stats solver in
  Alcotest.(check int) "clear_caches retires the persistent instance"
    (inc_before.Smt.Solver.retirements + 1)
    inc_after.Smt.Solver.retirements;
  let after = ask solver in
  Alcotest.(check bool) "verdicts and model rebuild identically" true (before = after);
  Alcotest.(check bool) "rebuilt groups are fresh blasts" true
    ((Smt.Solver.copy_inc_stats solver).Smt.Solver.group_misses
    > inc_after.Smt.Solver.group_misses);
  let fresh = ask (Smt.Solver.create ()) in
  Alcotest.(check bool) "agrees with a brand-new solver" true (before = fresh)

(* The persistent assumption-queried instance must give the verdict of a
   fresh from-scratch solve ({!Smt.Solver.check_deterministic} on a
   solver created for that query, so no cache is warm) on every query of
   a growing path, whatever the earlier queries taught the shared
   instance.  The caches are off so every non-trivial query reaches
   it. *)
let prop_incremental_matches_fresh =
  QCheck2.Test.make ~count:100 ~name:"incremental verdicts match fresh-instance solver"
    QCheck2.Gen.(list_size (int_range 1 8) gen_bool_expr)
    (fun conds ->
      let si = Smt.Solver.create ~use_sat_cache:false ~use_cex_cache:false () in
      let ok = ref true in
      let pc = ref (norm [ E.ult sym_a (i8 200) ]) in
      List.iter
        (fun c ->
          let vi = Smt.Solver.branch_feasible si ~pc:!pc c in
          let vf = is_sat (Smt.Solver.check_deterministic (Smt.Solver.create ()) (c :: !pc)) in
          if vi <> vf then ok := false;
          if vi then pc := norm (c :: !pc))
        conds;
      !ok)

(* --- hash consing ------------------------------------------------------------- *)

let test_hashcons_sharing () =
  let e1 = E.add (E.mul sym_a (i8 3)) sym_b in
  let e2 = E.add (E.mul sym_a (i8 3)) sym_b in
  Alcotest.(check bool) "identical constructions share one node" true (e1 == e2);
  Alcotest.(check int) "ids equal" (E.id e1) (E.id e2);
  Alcotest.(check bool) "equal is physical" true (E.equal e1 e2);
  Alcotest.(check int) "compare by id" 0 (E.compare e1 e2);
  Alcotest.(check int) "structural compare agrees" 0 (E.compare_structural e1 e2);
  let st = E.hashcons_stats () in
  Alcotest.(check bool) "table populated" true (st.E.table_size > 0);
  Alcotest.(check bool) "sharing recorded as hits" true (st.E.hits > 0);
  (* widths and symbol sets come from the node, not a traversal *)
  Alcotest.(check int) "cached width" 8 (E.width e1);
  Alcotest.(check int) "two symbols" 2 (E.Iset.cardinal (E.sym_set e1))

(* A doubling DAG: 41 distinct nodes, 2^40 paths from the root.  One
   substitution call must rebuild each distinct node once. *)
let test_substitute_shared_dag () =
  let dag leaf = List.fold_left (fun e _ -> E.add e e) leaf (List.init 40 Fun.id) in
  let e = dag sym_a in
  let before = E.hashcons_stats () in
  let r = E.substitute [ (sym_a, sym_b) ] e in
  let after = E.hashcons_stats () in
  let lookups = after.E.hits + after.E.misses - (before.E.hits + before.E.misses) in
  Alcotest.(check int) "one interning per rebuilt node" 40 lookups;
  Alcotest.(check bool) "the DAG over the replacement" true (r == dag sym_b)

(* The shard and the bucket inside the shard's weak table must come from
   different hash bits: when both used the low byte, every node of a
   shard shared one bucket, which never triggers a resize (10k nodes gave
   an 88-slot bucket).  Spread, [Weak.Make] grows a table once half its
   buckets pass 7 slots, so no bucket outgrows two steps (7 -> 13 -> 22). *)
let test_hashcons_buckets_spread () =
  let x = E.fresh_sym ~name:"spread" 32 in
  let nodes =
    List.init 5_000 (fun i ->
        let c = E.const ~width:32 (Int64.of_int (1_000_003 + i)) in
        (c, E.add x c))
  in
  let st = E.hashcons_stats () in
  Alcotest.(check bool)
    (Printf.sprintf "max bucket %d <= 22" st.E.max_bucket)
    true (st.E.max_bucket <= 22);
  ignore (Sys.opaque_identity nodes)

let test_memoized_simplify () =
  let e = E.add (E.mul sym_a (i8 2)) (E.sub sym_b sym_b) in
  ignore (Smt.Simplify.simplify e);
  Smt.Simplify.reset_stats ();
  let r1 = Smt.Simplify.simplify e in
  let st = Smt.Simplify.stats () in
  Alcotest.(check bool) "repeat simplify is a memo hit" true
    (st.Smt.Simplify.memo_hits >= 1 && st.Smt.Simplify.visits = 0);
  let r2 = Smt.Simplify.simplify r1 in
  Alcotest.(check bool) "simplify is idempotent (shared node)" true (r1 == r2);
  Alcotest.(check bool) "the result is normal without the memo" true (Smt.Simplify.is_normal r1);
  Alcotest.(check bool) "the input is not" false (Smt.Simplify.is_normal e)

(* An interning hit allocates no memo cell: every lookup probe shares one
   pair, and only an interned node gets its own.  The words of one
   [E.const] hit on this compiler (OCaml 5.1, no flambda) are:
   - [const] itself: the [Const] node (header + width + value = 3), the
     truncated boxed int64 (header + custom ops + payload = 3) and the
     boxed mask it is computed with (3);
   - the probe record: header + id, node, width, syms_memo, simp_memo = 6;
   - [Weak.Make]'s lookup: its bucket-loop closure (header + 11 = 12) and
     the [Some] of the matching slot (2);
   29 in all.  A fresh [Atomic] per probe (header + 1 field = 2, with one
   field less in the probe) made it 30. *)
let test_const_hit_allocation () =
  (* [c] keeps the constant interned, so every call below is a hit *)
  let c = E.const ~width:8 0x5aL in
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (E.const ~width:8 0x5aL))
  done;
  let per_hit = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check (float 0.0)) "minor words per interning hit" 29.0 per_hit;
  ignore (Sys.opaque_identity c)

let memcached2x4 () =
  Core.Cloud9.target "memcached2x4" (Targets.Memcached_mini.symbolic_packets ~npackets:2 ~pkt_len:4)

(* A finished run pins no terms: once its states, solver and report are
   garbage, the terms they built are collectable, simplified forms
   included.  A memo kept beside the term, keyed by id, kept every term
   the run simplified alive after it.  This must be the suite's first run
   of the target: under such a memo an earlier run would already have
   pinned the same terms. *)
let test_finished_run_pins_no_terms () =
  let target = memcached2x4 () in
  let live () =
    Gc.full_major ();
    (E.hashcons_stats ()).E.table_size
  in
  let before = live () in
  ignore (Sys.opaque_identity (Core.Cloud9.run_local target));
  let after = live () in
  if after > before then Alcotest.failf "live terms grew %d -> %d over a finished run" before after

(* Solver counts are a function of the queries, not of when the GC runs.
   A constraint that dies between two queries comes back as a new term
   with a new id, so the answer caches and the incremental instance hold
   the terms they key on: a constraint they know stays the term they
   know.  The same run under a 32 KB minor heap and an eager major GC
   must answer every tier exactly as often. *)
let test_solver_counts_ignore_gc () =
  let target = memcached2x4 () in
  let counts () =
    let r = Core.Cloud9.run_local target in
    (r.Core.Cloud9.solver_stats, r.Core.Cloud9.inc_stats)
  in
  let reference = counts () in
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = 4096; space_overhead = 10 };
  let eager = Fun.protect ~finally:(fun () -> Gc.set gc) counts in
  Alcotest.(check bool) "same solver and incremental counts" true (reference = eager)

(* --- solver stats reconciliation ---------------------------------------------- *)

let tier_sum st =
  st.Smt.Solver.trivial + st.Smt.Solver.cache_hits + st.Smt.Solver.cex_hits
  + st.Smt.Solver.sat_calls

(* Regression: a trivially-true condition must count as one query answered
   by the [trivial] tier — in every entry point. *)
let test_trivial_true_counted () =
  let check_entry name run =
    let solver = Smt.Solver.create () in
    run solver;
    let st = Smt.Solver.stats solver in
    Alcotest.(check bool)
      (name ^ ": trivial tier counted")
      true
      (st.Smt.Solver.queries >= 1 && st.Smt.Solver.trivial >= 1
      && tier_sum st = st.Smt.Solver.queries)
  in
  let taut = E.eq sym_a sym_a in
  let pc = norm [ E.ult sym_a (i8 10) ] in
  check_entry "check" (fun s ->
      Alcotest.(check bool) "sat" true (is_sat (Smt.Solver.check s [ taut ])));
  check_entry "check_deterministic" (fun s ->
      Alcotest.(check bool) "sat" true (is_sat (Smt.Solver.check_deterministic s [ taut ])));
  check_entry "branch_feasible" (fun s ->
      Alcotest.(check bool) "feasible" true (Smt.Solver.branch_feasible s ~pc taut));
  check_entry "fork_feasible" (fun s ->
      let t, f = Smt.Solver.fork_feasible s ~pc taut in
      Alcotest.(check (pair bool bool)) "true branch only" (true, false) (t, f))

(* Invariant: every answered query lands in exactly one tier, across all
   entry points, on randomized query mixes. *)
let prop_stats_reconcile =
  let gen =
    QCheck2.Gen.(list_size (int_range 1 20) (pair (int_bound 3) gen_bool_expr))
  in
  QCheck2.Test.make ~count:100 ~name:"trivial+cache+cex+sat = queries" gen
    (fun ops ->
      let solver = Smt.Solver.create () in
      let pc = norm [ E.ult sym_a (i8 200) ] in
      List.iter
        (fun (op, c) ->
          match op with
          | 0 -> ignore (Smt.Solver.check solver (c :: pc))
          | 1 -> ignore (Smt.Solver.branch_feasible solver ~pc c)
          | 2 -> ignore (Smt.Solver.check_deterministic solver (c :: pc))
          | _ -> ignore (Smt.Solver.fork_feasible solver ~pc c))
        ops;
      (* a two-component pc asked twice: the c component is new (a fresh
         solve), and the second ask hits the det memo on both *)
      let det_pc = norm [ E.ult sym_c (i8 7); E.ult sym_a (i8 200) ] in
      let s0 = Smt.Solver.copy_stats solver in
      ignore (Smt.Solver.check_deterministic solver det_pc);
      ignore (Smt.Solver.check_deterministic solver det_pc);
      let st = Smt.Solver.stats solver in
      tier_sum st = st.Smt.Solver.queries
      && st.Smt.Solver.queries - s0.Smt.Solver.queries = 4
      && st.Smt.Solver.sat_calls > s0.Smt.Solver.sat_calls
      && st.Smt.Solver.cache_hits - s0.Smt.Solver.cache_hits >= 2)

(* The fused fork entry point (shared simplify and slice) answers
   exactly what a plain {!Smt.Solver.check} of the full, unsliced
   conjunction does, on both polarities.  The reference runs without
   independence, so it shares neither the slice nor the split [check]. *)
let prop_fork_matches_check =
  QCheck2.Test.make ~count:100 ~name:"fork_feasible = check on both polarities"
    QCheck2.Gen.(pair gen_bool_expr (int_bound 254))
    (fun (c, bound) ->
      let pc = norm [ E.ule sym_a (E.const ~width:8 (Int64.of_int bound)) ] in
      let fused = Smt.Solver.fork_feasible (Smt.Solver.create ()) ~pc c in
      let s = Smt.Solver.create ~use_independence:false () in
      fused = (is_sat (Smt.Solver.check s (c :: pc)), is_sat (Smt.Solver.check s (E.not_ c :: pc))))

(* [check] splits the pc into symbol-connected components and merges
   their models.  Path conditions over a and b (one group) and c (the
   other), grown one constraint at a time on one solver whose
   counterexample cache was first seeded with models binding all three
   symbols: every verdict equals a whole-pc check without independence,
   and every merged model satisfies the pc and binds only its symbols
   (a cached model of one component must not leak another's bindings
   into the merge). *)
let prop_check_split_matches_whole =
  let gen =
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 3) (gen_bool_over [ sym_a; sym_b; sym_c ]))
        (list_size (int_range 2 6) (oneof [ gen_bool_expr; gen_bool_over [ sym_c ] ])))
  in
  QCheck2.Test.make ~count:60 ~name:"split check = whole check, merged model sound" gen
    (fun (seeds, conds) ->
      let split = Smt.Solver.create () in
      List.iter (fun c -> ignore (Smt.Solver.check split [ c ])) seeds;
      let pc = ref [] in
      List.for_all
        (fun c ->
          let pc' = norm (c :: !pc) in
          let whole = Smt.Solver.check (Smt.Solver.create ~use_independence:false ()) pc' in
          let syms =
            List.fold_left (fun acc e -> E.Iset.union acc (E.sym_set e)) E.Iset.empty pc'
          in
          let ok =
            match (Smt.Solver.check split pc', whole) with
            | Smt.Solver.Sat m, Smt.Solver.Sat _ ->
              Smt.Model.satisfies m pc'
              && List.for_all (fun (id, _) -> E.Iset.mem id syms) (Smt.Model.bindings m)
            | Smt.Solver.Unsat, Smt.Solver.Unsat -> true
            | _ -> false
          in
          if is_sat whole then pc := pc';
          ok)
        conds)

(* [check_deterministic] answers one component at a time, so a
   component's bindings depend only on the component: conjoining a
   constraint over symbols the pc does not mention leaves every binding
   of the pc's own symbols unchanged.  Each side runs on its own new
   solver, so neither sees the other's memo. *)
let prop_det_independence_invariant =
  let gen =
    QCheck2.Gen.(pair (list_size (int_range 1 5) gen_bool_expr) (gen_bool_over [ sym_c; sym_d ]))
  in
  QCheck2.Test.make ~count:200 ~name:"det model unchanged by an unrelated constraint" gen
    (fun (pc, extra) ->
      let det cs = Smt.Solver.check_deterministic (Smt.Solver.create ()) cs in
      match (det pc, det (extra :: pc)) with
      | Smt.Solver.Sat m, Smt.Solver.Sat m' ->
        List.for_all (fun s -> Smt.Model.get m (sym_id s) = Smt.Model.get m' (sym_id s))
          [ sym_a; sym_b ]
      | Smt.Solver.Unsat, Smt.Solver.Sat _ -> false
      | _, Smt.Solver.Unsat -> true)

(* A deterministic model depends only on the constraint set: a solver
   asked the pc first and one asked it in shuffled order after a polluted
   history — incremental queries, test-case checks and deterministic
   solves of other sets, including some of the pc's own components —
   return identical models.  So does a second solver sharing the polluted
   one's answer store, which answers from what the first one solved. *)
let prop_det_history_independent =
  let gen =
    QCheck2.Gen.(
      let* pc =
        list_size (int_range 1 6)
          (oneof [ gen_bool_expr; gen_bool_over [ sym_c ]; gen_bool_over [ sym_c; sym_d ] ])
      in
      let* shuffled = shuffle_l pc in
      let* history = list_size (int_range 1 4) (gen_bool_over [ sym_a; sym_b; sym_c; sym_d ]) in
      return (pc, shuffled, history))
  in
  QCheck2.Test.make ~count:80 ~name:"det model is history-independent" gen
    (fun (pc, shuffled, history) ->
      let bindings s cs =
        match Smt.Solver.check_deterministic s cs with
        | Smt.Solver.Sat m -> Some (Smt.Model.bindings m)
        | Smt.Solver.Unsat -> None
      in
      let cold = bindings (Smt.Solver.create ()) pc in
      let store = Smt.Solver.Store.create () in
      let warm = Smt.Solver.create () and sharer = Smt.Solver.create () in
      Smt.Solver.attach warm store;
      Smt.Solver.attach sharer store;
      List.iter
        (fun h ->
          ignore (Smt.Solver.check warm [ h ]);
          ignore (Smt.Solver.fork_feasible warm ~pc:(norm [ E.ult sym_a (i8 250) ]) h);
          ignore (Smt.Solver.check_deterministic warm [ h ]))
        history;
      ignore (Smt.Solver.check_deterministic warm (history @ pc));
      List.iteri
        (fun i _ ->
          ignore (Smt.Solver.check_deterministic warm (List.filteri (fun j _ -> j <> i) pc)))
        pc;
      cold = bindings warm shuffled && cold = bindings sharer shuffled)

(* The merged deterministic model satisfies the pc and binds only its
   symbols, and the verdict equals a whole-pc check without
   independence. *)
let prop_det_sound =
  QCheck2.Test.make ~count:150 ~name:"det merged model satisfies the pc"
    QCheck2.Gen.(
      list_size (int_range 1 6)
        (oneof [ gen_bool_expr; gen_bool_over [ sym_c ]; gen_bool_over [ sym_c; sym_d ] ]))
    (fun pc ->
      let whole = Smt.Solver.check (Smt.Solver.create ~use_independence:false ()) pc in
      let pc' = norm pc in
      let syms = List.fold_left (fun acc e -> E.Iset.union acc (E.sym_set e)) E.Iset.empty pc' in
      match (Smt.Solver.check_deterministic (Smt.Solver.create ()) pc, whole) with
      | Smt.Solver.Sat m, Smt.Solver.Sat _ ->
        Smt.Model.satisfies m pc
        && List.for_all (fun (id, _) -> E.Iset.mem id syms) (Smt.Model.bindings m)
      | Smt.Solver.Unsat, Smt.Solver.Unsat -> true
      | _ -> false)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "smt"
    [
      ( "expr",
        [
          Alcotest.test_case "arith eval" `Quick test_eval_arith;
          Alcotest.test_case "signed eval" `Quick test_eval_signed;
          Alcotest.test_case "extract/concat" `Quick test_extract_concat;
          Alcotest.test_case "width errors" `Quick test_width_errors;
          Alcotest.test_case "sext/zext" `Quick test_sext_zext;
          Alcotest.test_case "hashcons sharing" `Quick test_hashcons_sharing;
          Alcotest.test_case "substitute walks a shared DAG once" `Quick test_substitute_shared_dag;
          Alcotest.test_case "hashcons buckets spread across shards" `Quick
            test_hashcons_buckets_spread;
        ] );
      ( "simplify",
        Alcotest.test_case "identities" `Quick test_simplify_identities
        :: Alcotest.test_case "memoization" `Quick test_memoized_simplify
        :: Alcotest.test_case "an interning hit allocates only its probe" `Quick
             test_const_hit_allocation
        :: Alcotest.test_case "a finished run pins no terms" `Quick test_finished_run_pins_no_terms
        :: Alcotest.test_case "solver counts do not depend on GC timing" `Quick
             test_solver_counts_ignore_gc
        :: qsuite [ prop_simplify_preserves_semantics; prop_lower_preserves_semantics ] );
      ( "sat",
        [
          Alcotest.test_case "basic sat" `Quick test_sat_basic;
          Alcotest.test_case "basic unsat" `Quick test_sat_unsat;
          Alcotest.test_case "pigeonhole" `Quick test_sat_pigeonhole;
          Alcotest.test_case "unmarked solve after a marked one" `Quick
            test_unmarked_solve_after_marked;
          Alcotest.test_case "pinned pigeonhole" `Quick test_pinned_pigeonhole;
          Alcotest.test_case "pinned random 3-sat" `Quick test_pinned_random_3sat;
          Alcotest.test_case "pinned persistent" `Quick test_pinned_persistent;
          Alcotest.test_case "persistent allocation" `Quick test_persistent_allocation;
        ]
        @ qsuite
            [
              prop_sat_matches_bruteforce;
              prop_assumptions_match_units;
              prop_add_clause_matches_list;
            ] );
      ("cnf", qsuite [ prop_cnf_agrees_with_eval; prop_untracked_matches_tracked ]);
      ( "solver",
        [
          Alcotest.test_case "branch feasibility" `Quick test_branch_feasible;
          Alcotest.test_case "independence slicing" `Quick test_independence_slicing;
          Alcotest.test_case "caches" `Quick test_cache_hits;
          Alcotest.test_case "deterministic models" `Quick test_deterministic_models;
          Alcotest.test_case "model extraction" `Quick test_model_extraction;
          Alcotest.test_case "trivial-true tier counted" `Quick test_trivial_true_counted;
          Alcotest.test_case "clear_caches rebuilds" `Quick test_clear_caches_rebuild;
          Alcotest.test_case "solvers sharing a store" `Quick test_shared_store;
        ]
        @ qsuite
            [
              prop_solver_matches_bruteforce;
              prop_stats_reconcile;
              prop_fork_matches_check;
              prop_check_split_matches_whole;
              prop_incremental_matches_fresh;
              prop_det_independence_invariant;
              prop_det_history_independent;
              prop_det_sound;
            ] );
    ]
