(* Cross-cutting property tests: persistent queue semantics, the symbolic
   memory's copy-on-write isolation and little-endian layout, path/trie
   algebra, expression substitution, and solver determinism. *)

module E = Smt.Expr
module Path = Engine.Path

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* --- Fqueue: model-based against plain lists ------------------------------- *)

type qop = Push of int | Pop | Pop_n of int

let gen_qops =
  let open QCheck2.Gen in
  list_size (int_range 1 60)
    (frequency
       [
         (3, map (fun x -> Push x) (int_bound 1000));
         (2, return Pop);
         (1, map (fun n -> Pop_n n) (int_bound 5));
       ])

let prop_fqueue_matches_list_model =
  QCheck2.Test.make ~count:300 ~name:"Fqueue behaves like a list" gen_qops (fun ops ->
      let q = ref Posix.Fqueue.empty in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Push x ->
            q := Posix.Fqueue.push !q x;
            model := !model @ [ x ];
            true
          | Pop -> (
            match (Posix.Fqueue.pop !q, !model) with
            | None, [] -> true
            | Some (x, q'), y :: rest ->
              q := q';
              model := rest;
              x = y
            | _ -> false)
          | Pop_n n ->
            let xs, q' = Posix.Fqueue.pop_n !q n in
            q := q';
            let expect = List.filteri (fun i _ -> i < n) !model in
            model := List.filteri (fun i _ -> i >= n) !model;
            xs = expect)
        ops
      && Posix.Fqueue.to_list !q = !model
      && Posix.Fqueue.length !q = List.length !model)

(* --- Memory ------------------------------------------------------------------ *)

let prop_memory_roundtrip =
  let gen =
    QCheck2.Gen.(pair (int_bound 20) (list_size (int_range 1 8) (int_bound 255)))
  in
  QCheck2.Test.make ~count:300 ~name:"memory store/load roundtrip (little-endian)" gen
    (fun (off, bytes) ->
      let mem = Cvm.Memory.empty in
      let mem, base = Cvm.Memory.alloc mem ~pid:0 ~size:32 in
      let addr = base + off in
      let mem =
        List.fold_left
          (fun (mem, i) b ->
            (Cvm.Memory.store mem ~pid:0 ~addr:(addr + i) (E.const ~width:8 (Int64.of_int b)), i + 1))
          (mem, 0) bytes
        |> fst
      in
      let loaded = Cvm.Memory.load mem ~pid:0 ~addr ~len:(List.length bytes) in
      let expect =
        List.rev bytes |> List.fold_left (fun acc b -> Int64.logor (Int64.shift_left acc 8) (Int64.of_int b)) 0L
      in
      E.const_value loaded = Some expect)

let test_memory_cow_isolation () =
  let mem = Cvm.Memory.empty in
  let mem, base = Cvm.Memory.alloc mem ~pid:0 ~size:4 in
  let mem = Cvm.Memory.store mem ~pid:0 ~addr:base (E.const ~width:8 7L) in
  let mem = Cvm.Memory.clone_space mem ~parent:0 ~child:1 in
  (* the child sees the parent's value... *)
  Alcotest.(check bool) "child inherits" true
    (E.const_value (Cvm.Memory.load mem ~pid:1 ~addr:base ~len:1) = Some 7L);
  (* ...but writes diverge in both directions *)
  let mem2 = Cvm.Memory.store mem ~pid:1 ~addr:base (E.const ~width:8 9L) in
  Alcotest.(check bool) "parent unaffected by child write" true
    (E.const_value (Cvm.Memory.load mem2 ~pid:0 ~addr:base ~len:1) = Some 7L);
  let mem3 = Cvm.Memory.store mem2 ~pid:0 ~addr:base (E.const ~width:8 5L) in
  Alcotest.(check bool) "child unaffected by parent write" true
    (E.const_value (Cvm.Memory.load mem3 ~pid:1 ~addr:base ~len:1) = Some 9L)

let test_memory_shared_objects () =
  let mem = Cvm.Memory.empty in
  let mem, base = Cvm.Memory.alloc ~shared:true mem ~pid:0 ~size:4 in
  let mem = Cvm.Memory.clone_space mem ~parent:0 ~child:1 in
  let mem = Cvm.Memory.store mem ~pid:1 ~addr:base (E.const ~width:8 3L) in
  Alcotest.(check bool) "shared write visible across processes" true
    (E.const_value (Cvm.Memory.load mem ~pid:0 ~addr:base ~len:1) = Some 3L)

let test_memory_faults () =
  let mem = Cvm.Memory.empty in
  let mem, base = Cvm.Memory.alloc mem ~pid:0 ~size:4 in
  Alcotest.check_raises "out of bounds"
    (Cvm.Memory.Fault (Cvm.Memory.Out_of_bounds { addr = base + 3; size = 2 }))
    (fun () -> ignore (Cvm.Memory.load mem ~pid:0 ~addr:(base + 3) ~len:2));
  Alcotest.check_raises "unmapped" (Cvm.Memory.Fault (Cvm.Memory.Unmapped { addr = 4 }))
    (fun () -> ignore (Cvm.Memory.load mem ~pid:0 ~addr:4 ~len:1));
  let mem = Cvm.Memory.free mem ~pid:0 ~addr:base in
  Alcotest.check_raises "use after free"
    (Cvm.Memory.Fault (Cvm.Memory.Use_after_free { addr = base }))
    (fun () -> ignore (Cvm.Memory.load mem ~pid:0 ~addr:base ~len:1))

(* --- Path algebra ---------------------------------------------------------------- *)

let gen_path =
  QCheck2.Gen.(
    list_size (int_bound 12)
      (oneof
         [
           map (fun b -> Path.Branch b) bool;
           map (fun i -> Path.Sched i) (int_bound 3);
           map (fun i -> Path.Sys i) (int_bound 3);
         ]))

let prop_path_prefix =
  QCheck2.Test.make ~count:300 ~name:"path prefix algebra" (QCheck2.Gen.pair gen_path gen_path)
    (fun (p, q) ->
      Path.is_prefix p (p @ q)
      && Path.common_prefix_len p p = Path.length p
      && Path.common_prefix_len p q <= min (Path.length p) (Path.length q)
      && (Path.to_string p = Path.to_string q) = (p = q))

(* The prefix-handoff batch codec: factoring a batch of root paths into
   longest-common-prefix + suffixes, shipping it through the wire form,
   and re-expanding must lose no node, duplicate no node, and preserve
   order; the analytic replay bound is prefix + sum-of-suffixes. *)
let gen_batch =
  (* bias toward genuinely shared prefixes: a common stem plus per-member
     tails, mixed with fully independent paths *)
  QCheck2.Gen.(
    let clustered =
      map2 (fun stem tails -> List.map (fun t -> stem @ t) tails) gen_path
        (list_size (int_range 1 6) gen_path)
    in
    let scattered = list_size (int_range 1 6) gen_path in
    oneof [ clustered; scattered ])

let prop_prefix_codec =
  QCheck2.Test.make ~count:500 ~name:"prefix batch codec roundtrip" gen_batch (fun ps ->
      let ((prefix, sufs) as b) = Path.factor ps in
      (* no loss, no duplication, order preserved *)
      Path.expand b = ps
      (* every member really extends the prefix *)
      && List.for_all (fun p -> Path.is_prefix prefix p) ps
      (* maximality: with >= 2 members the suffix heads cannot all agree *)
      && (match sufs with
         | [] | [ _ ] -> true
         | s0 :: rest -> (
           match s0 with
           | [] -> true
           | h :: _ ->
             List.exists (function [] -> true | h' :: _ -> h' <> h) rest))
      (* wire roundtrip is exact *)
      && Path.decode_batch (Path.encode_batch b) = Ok b
      (* analytic replay cost: shared prefix once, then each suffix *)
      && Path.replay_bound b
         = Path.length prefix + List.fold_left (fun a s -> a + Path.length s) 0 sufs
      && Path.replay_bound b
         <= List.fold_left (fun a p -> a + Path.length p) 0 ps
            + (if ps = [] then 0 else Path.length prefix))

(* Decoding never raises, and any Ok result re-encodes to the same bytes. *)
let decodes_only_canonical s =
  match Path.decode_batch s with Error _ -> true | Ok b -> Path.encode_batch b = s

let prop_prefix_codec_rejects_garbage =
  QCheck2.Test.make ~count:300 ~name:"batch codec rejects corrupt wire strings"
    QCheck2.Gen.(string_size ~gen:printable (int_bound 20))
    decodes_only_canonical

(* The same check on corrupted valid wire strings: every truncation and
   every single-byte substitution of an [encode_batch] output. *)
let prop_batch_codec_survives_corruption =
  QCheck2.Test.make ~count:50 ~name:"batch codec survives truncation and byte substitution"
    ~print:(fun ps -> Path.encode_batch (Path.factor ps))
    gen_batch (fun ps ->
      let wire = Path.encode_batch (Path.factor ps) in
      let positions = List.init (String.length wire) Fun.id in
      List.for_all (fun len -> decodes_only_canonical (String.sub wire 0 len)) positions
      && List.for_all
           (fun i ->
             List.for_all
               (fun c ->
                 decodes_only_canonical
                   (String.mapi (fun j x -> if j = i then Char.chr c else x) wire))
               (List.init 256 Fun.id))
           positions)

(* --- Trie: model-based ---------------------------------------------------------- *)

let prop_trie_matches_assoc_model =
  let gen = QCheck2.Gen.(list_size (int_range 1 40) (pair gen_path (int_bound 100))) in
  QCheck2.Test.make ~count:200 ~name:"trie add/remove/find vs assoc model" gen (fun ops ->
      let t = Engine.Trie.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (p, v) ->
          Engine.Trie.add t p v;
          Hashtbl.replace model (Path.to_string p) (p, v))
        ops;
      let ok_finds =
        Hashtbl.fold
          (fun _ (p, v) acc -> acc && Engine.Trie.find t p = Some v)
          model true
      in
      let ok_size = Engine.Trie.size t = Hashtbl.length model in
      (* remove half the keys and re-check *)
      let keys = Hashtbl.fold (fun _ (p, _) acc -> p :: acc) model [] in
      let removed = List.filteri (fun i _ -> i mod 2 = 0) keys in
      List.iter
        (fun p ->
          assert (Engine.Trie.remove t p);
          Hashtbl.remove model (Path.to_string p))
        removed;
      let ok_after =
        Hashtbl.fold (fun _ (p, v) acc -> acc && Engine.Trie.find t p = Some v) model true
        && List.for_all (fun p -> Engine.Trie.find t p = None) removed
        && Engine.Trie.size t = Hashtbl.length model
      in
      ok_finds && ok_size && ok_after)

let prop_trie_random_pick_member =
  let gen = QCheck2.Gen.(list_size (int_range 1 20) (pair gen_path (int_bound 100))) in
  QCheck2.Test.make ~count:200 ~name:"trie random_pick returns a stored payload" gen
    (fun ops ->
      let t = Engine.Trie.create () in
      List.iter (fun (p, v) -> Engine.Trie.add t p v) ops;
      let rng = Random.State.make [| 9 |] in
      match Engine.Trie.random_pick rng t with
      | None -> Engine.Trie.size t = 0
      | Some v -> List.exists (fun (_, v') -> v = v') ops)

(* The list-based random-path descent [Trie.random_pick] used to run, over
   a mirror of the trie's layout (children prepended on creation, dropped
   when their subtree empties), kept as the reference for its draws. *)
module Ref_trie = struct
  type 'a t = { mutable payload : 'a option; mutable children : (Path.choice * 'a t) list }

  let create () = { payload = None; children = [] }
  let rec count t =
    List.fold_left (fun acc (_, n) -> acc + count n) (Option.fold ~none:0 ~some:(fun _ -> 1) t.payload)
      t.children

  let rec add t path x =
    match path with
    | [] -> t.payload <- Some x
    | c :: rest ->
      let child =
        match List.assoc_opt c t.children with
        | Some n -> n
        | None ->
          let n = create () in
          t.children <- (c, n) :: t.children;
          n
      in
      add child rest x

  let rec remove t path =
    match path with
    | [] -> t.payload <- None
    | c :: rest -> (
      match List.assoc_opt c t.children with
      | None -> ()
      | Some child ->
        remove child rest;
        if count child = 0 then t.children <- List.remove_assoc c t.children)

  let rec random_pick rng t =
    let options =
      (match t.payload with Some _ -> [ `Here ] | None -> [])
      @ List.filter_map (fun (_, n) -> if count n > 0 then Some (`Child n) else None) t.children
    in
    match options with
    | [] -> None
    | _ -> (
      match List.nth options (Random.State.int rng (List.length options)) with
      | `Here -> t.payload
      | `Child n -> random_pick rng n)
end

let prop_trie_random_pick_draws =
  let open QCheck2.Gen in
  let gen_op = pair (frequency [ (3, return true); (1, return false) ]) (pair gen_path (int_bound 100)) in
  let gen = triple (list_size (int_range 1 40) gen_op) (int_bound 10_000) (int_range 1 5) in
  QCheck2.Test.make ~count:300 ~name:"trie random_pick draws like the list-based descent" gen
    (fun (ops, seed, picks) ->
      let t = Engine.Trie.create () and r = Ref_trie.create () in
      let rng = Random.State.make [| seed |] and rng' = Random.State.make [| seed |] in
      (* picks interleave with the updates, so the layout evolves between draws *)
      List.for_all
        (fun (is_add, (p, v)) ->
          if is_add then begin
            Engine.Trie.add t p v;
            Ref_trie.add r p v
          end
          else begin
            ignore (Engine.Trie.remove t p);
            Ref_trie.remove r p
          end;
          List.init picks (fun _ -> Engine.Trie.random_pick rng t)
          = List.init picks (fun _ -> Ref_trie.random_pick rng' r))
        ops
      && Random.State.bits rng = Random.State.bits rng')

(* --- searchers: model-based, all five strategies -------------------------------------- *)

type sop = Add_fresh of int | Replace of int | Select | Readd | Fork | Remove of int

let gen_sops =
  let open QCheck2.Gen in
  list_size (int_range 1 80)
    (frequency
       [
         (3, map (fun s -> Add_fresh s) (int_bound 20));
         (1, map (fun i -> Replace i) (int_bound 50));
         (4, return Select);
         (3, return Readd);
         (2, return Fork);
         (2, map (fun i -> Remove i) (int_bound 50));
       ])

let searcher_st0 =
  let open Lang.Builder in
  let program = compile (cunit ~entry:"main" [ fn "main" [] (Some u32) [ halt (n 0) ] ]) in
  Engine.State.init program ~env:() ~args:[]

(* The model: the queued states by path, plus the checked-out state.
   Every selected state must be physically a queued one (so no removed
   or retired state comes back); draining at the end must return every
   queued state exactly once (so none is lost). *)
let searcher_matches_model name (ops, seed) =
  let s = Engine.Searcher.of_name ~rng:(Random.State.make [| seed |]) name in
  let live = Hashtbl.create 16 and out = ref None and fresh = ref 0 in
  let key st = Path.to_string (Engine.State.path st) in
  let add st =
    out := None;
    s.Engine.Searcher.add st;
    Hashtbl.replace live (key st) st
  in
  let select () =
    out := None;
    match s.Engine.Searcher.select () with
    | None -> Hashtbl.length live = 0
    | Some st -> (
      match Hashtbl.find_opt live (key st) with
      | Some q when q == st ->
        Hashtbl.remove live (key st);
        out := Some st;
        true
      | _ -> false)
  in
  let step = function
    | Add_fresh steps ->
      incr fresh;
      add { searcher_st0 with Engine.State.path = [ Path.Sys !fresh ]; steps };
      true
    | Replace i ->
      (* a queued path added again: the new state takes its place *)
      let queued = Hashtbl.fold (fun k _ acc -> k :: acc) live [] |> List.sort compare in
      if queued <> [] then begin
        let st = Hashtbl.find live (List.nth queued (i mod List.length queued)) in
        add { st with Engine.State.path = Engine.State.path st |> List.rev; steps = i }
      end;
      true
    | Select -> select ()
    | Readd ->
      (* the step did not fork: same newest-first path list *)
      Option.iter (fun st -> add { st with Engine.State.steps = st.Engine.State.steps + 1 }) !out;
      true
    | Fork ->
      Option.iter
        (fun st ->
          add (Engine.State.push_choice st (Path.Branch true));
          add (Engine.State.push_choice st (Path.Branch false)))
        !out;
      true
    | Remove i ->
      let paths =
        Hashtbl.fold (fun _ st acc -> Engine.State.path st :: acc) live []
        @ Option.to_list (Option.map Engine.State.path !out)
      in
      if paths <> [] then begin
        let p = List.nth (List.sort Path.compare paths) (i mod List.length paths) in
        out := None;
        s.Engine.Searcher.remove p;
        Hashtbl.remove live (Path.to_string p)
      end;
      true
  in
  let ok_ops =
    List.for_all (fun op -> step op && s.Engine.Searcher.size () = Hashtbl.length live) ops
  in
  let rec drain () = if Hashtbl.length live = 0 then true else select () && drain () in
  ok_ops && drain () && s.Engine.Searcher.select () = None && s.Engine.Searcher.size () = 0

let prop_searchers_match_model =
  List.map
    (fun name ->
      QCheck2.Test.make ~count:300 ~name:(name ^ " searcher vs set model")
        QCheck2.Gen.(pair gen_sops (int_bound 1000))
        (searcher_matches_model name))
    [ "dfs"; "bfs"; "random-path"; "cov-opt"; "interleaved" ]

(* --- expression substitution -------------------------------------------------------- *)

let sym_a = E.fresh_sym ~name:"pa" 8

let prop_substitute_sound =
  (* if the context forces a = c, then substituting a -> c preserves
     evaluation under any model with a = c *)
  let gen = QCheck2.Gen.(pair (int_bound 255) (int_bound 255)) in
  QCheck2.Test.make ~count:300 ~name:"substitute preserves eval under the equality" gen
    (fun (c, other) ->
      let cst = E.const ~width:8 (Int64.of_int c) in
      let e =
        E.add (E.mul sym_a (E.const ~width:8 (Int64.of_int other))) (E.binop E.Xor sym_a cst)
      in
      let e' = E.substitute [ (sym_a, cst) ] e in
      let lookup id = if Some id = (match sym_a.E.node with E.Sym { id; _ } -> Some id | _ -> None) then Some (Int64.of_int c) else None in
      E.eval lookup e = E.eval lookup e' && E.syms e' = [])

(* --- path condition maintenance ------------------------------------------------------- *)

let pc_x = E.fresh_sym ~name:"px" 8
let pc_y = E.fresh_sym ~name:"py" 8

(* Comparisons against constants (some trivially true, some pinning a
   symbol and so feeding the substitution), possibly negated. *)
let gen_constraint =
  let open QCheck2.Gen in
  let* lhs = oneofl [ pc_x; pc_y; E.add pc_x pc_y; E.zext (E.extract pc_x ~off:0 ~len:4) 8 ] in
  let* k = map (fun v -> E.const ~width:8 (Int64.of_int v)) (int_bound 255) in
  let* op = oneofl [ E.Ult; E.Ule; E.Eq; E.Slt ] in
  let* flip = bool in
  let* neg = bool in
  let c = if flip then E.binop op k lhs else E.binop op lhs k in
  return (if neg then E.not_ c else c)

(* [State.add_constraint] keeps the pc normalized — every member a
   simplify fixpoint and none trivially true.  [is_normal] re-derives the
   fixpoint without the per-node memo, which would answer [simplify c == c]
   from the slot [add_constraint] itself wrote. *)
let prop_add_constraint_normalized =
  QCheck2.Test.make ~count:300 ~name:"add_constraint keeps pc normalized"
    QCheck2.Gen.(list_size (int_range 1 12) gen_constraint)
    (fun cs ->
      let st = List.fold_left Engine.State.add_constraint searcher_st0 cs in
      let pc = st.Engine.State.pc in
      List.for_all (fun c -> Smt.Simplify.is_normal c && not (E.is_true c)) pc)

(* --- solver determinism ---------------------------------------------------------------- *)

let test_check_deterministic_history_independent () =
  let x = E.fresh_sym ~name:"dx" 8 in
  let y = E.fresh_sym ~name:"dy" 8 in
  let pc = [ E.ult x (E.const ~width:8 200L); E.ult (E.const ~width:8 3L) y ] in
  let model_of solver =
    match Smt.Solver.check_deterministic solver pc with
    | Smt.Solver.Sat m -> Smt.Model.bindings m
    | Smt.Solver.Unsat -> Alcotest.fail "pc must be sat"
  in
  (* solver 1: fresh *)
  let s1 = Smt.Solver.create () in
  let m1 = model_of s1 in
  (* solver 2: polluted with unrelated query history first *)
  let s2 = Smt.Solver.create () in
  ignore (Smt.Solver.check s2 [ E.eq x (E.const ~width:8 123L) ]);
  ignore (Smt.Solver.check s2 [ E.eq y (E.const ~width:8 45L) ]);
  ignore
    (Smt.Solver.branch_feasible s2 ~pc:(List.map Smt.Simplify.simplify pc)
       (E.eq x (E.const ~width:8 7L)));
  let m2 = model_of s2 in
  Alcotest.(check bool) "same model regardless of history" true (m1 = m2)

(* --- engine: replay determinism at the state level --------------------------------------- *)

let test_fresh_input_ids_deterministic () =
  let open Lang.Builder in
  let program =
    compile
      (cunit ~entry:"main"
         [ fn "main" [] (Some u32) [ halt (n 0) ] ])
  in
  let st1 = Engine.State.init program ~env:() ~args:[] in
  let st1, syms1 = Engine.State.fresh_input st1 ~name:"x" ~count:3 in
  let _, syms1b = Engine.State.fresh_input st1 ~name:"y" ~count:2 in
  let st2 = Engine.State.init program ~env:() ~args:[] in
  let st2, syms2 = Engine.State.fresh_input st2 ~name:"x" ~count:3 in
  let _, syms2b = Engine.State.fresh_input st2 ~name:"y" ~count:2 in
  Alcotest.(check bool) "identical symbol ids across replays" true
    (syms1 = syms2 && syms1b = syms2b)

let () =
  Alcotest.run "props"
    [
      ("fqueue", qsuite [ prop_fqueue_matches_list_model ]);
      ( "memory",
        [
          Alcotest.test_case "CoW isolation" `Quick test_memory_cow_isolation;
          Alcotest.test_case "shared objects" `Quick test_memory_shared_objects;
          Alcotest.test_case "faults" `Quick test_memory_faults;
        ]
        @ qsuite [ prop_memory_roundtrip ] );
      ( "path",
        qsuite
          [
            prop_path_prefix;
            prop_prefix_codec;
            prop_prefix_codec_rejects_garbage;
            prop_batch_codec_survives_corruption;
          ] );
      ( "trie",
        qsuite
          [ prop_trie_matches_assoc_model; prop_trie_random_pick_member; prop_trie_random_pick_draws ]
      );
      ("searcher", qsuite prop_searchers_match_model);
      ("substitution", qsuite [ prop_substitute_sound ]);
      ("state", qsuite [ prop_add_constraint_normalized ]);
      ( "determinism",
        [
          Alcotest.test_case "solver history independence" `Quick
            test_check_deterministic_history_independent;
          Alcotest.test_case "symbol ids replay-stable" `Quick test_fresh_input_ids_deterministic;
        ] );
    ]
