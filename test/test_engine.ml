(* Tests for the symbolic execution engine: forking at symbolic branches,
   test-case generation, searchers, hang detection, threads, processes,
   shared memory, and scheduling policies.

   Programs introduce symbolic data through the engine's make_symbolic
   primitive (syscall 11) directly; the friendlier wrappers live in the
   core Cloud9 API and are tested in test_core.ml. *)

open Lang.Builder

(* engine primitive syscall numbers (Engine.Executor.Sysno) *)
let sys_make_shared = 1
let sys_thread_create = 2
let sys_process_fork = 4
let sys_process_terminate = 5
let sys_get_context = 6
let sys_preempt = 7
let sys_sleep = 8
let sys_notify = 9
let sys_get_wlist = 10
let sys_make_symbolic = 11
let sys_set_scheduler = 13
let sys_assume = 14

let mk_symbolic arr len name = expr (syscall sys_make_symbolic [ addr (idx (v arr) (n 0)); n len; str name ])

let run_program ?max_steps ?(strategy = "dfs") cu =
  let program = compile cu in
  let rng = Random.State.make [| 7 |] in
  let searcher = Engine.Searcher.of_name ~rng strategy in
  Engine.Driver.run_pure ?max_steps ~searcher program ~args:[]

let terminations result =
  List.map (fun tc -> tc.Engine.Testcase.termination) result.Engine.Driver.tests

(* --- symbolic forking ---------------------------------------------------------- *)

let sym_branch_unit =
  cunit ~entry:"main"
    [
      fn "main" [] (Some u32)
        [
          decl_arr "x" u8 1;
          mk_symbolic "x" 1 "x";
          if_ (idx (v "x") (n 0) <! n 10) [ halt (n 1) ] [ halt (n 2) ];
        ];
    ]

let test_symbolic_fork () =
  let _cfg, result = run_program sym_branch_unit in
  Alcotest.(check int) "two paths" 2 result.Engine.Driver.paths_explored;
  let codes =
    List.filter_map
      (function Engine.Errors.Exit c -> Some c | _ -> None)
      (terminations result)
    |> List.sort compare
  in
  Alcotest.(check (list int64)) "both sides reached" [ 1L; 2L ] codes

let test_testcase_inputs_satisfy_path () =
  let _cfg, result = run_program sym_branch_unit in
  (* each test's input byte must drive the program down the recorded side *)
  List.iter
    (fun tc ->
      let input = List.assoc "x" tc.Engine.Testcase.inputs in
      let byte = Char.code input.[0] in
      match tc.Engine.Testcase.termination with
      | Engine.Errors.Exit 1L ->
        Alcotest.(check bool) "exit 1 implies x < 10" true (byte < 10)
      | Engine.Errors.Exit 2L ->
        Alcotest.(check bool) "exit 2 implies x >= 10" true (byte >= 10)
      | other -> Alcotest.failf "unexpected %s" (Engine.Errors.termination_to_string other))
    result.Engine.Driver.tests

let test_exhaustive_path_count () =
  (* two symbolic bytes, each classified into 3 classes -> 9 paths *)
  let cu =
    cunit ~entry:"main"
      [
        fn "classify" [ ("c", u8) ] (Some u32)
          [
            if_ (v "c" <! chr '0') [ ret (n 0) ] [];
            if_ (v "c" <=! chr '9') [ ret (n 1) ] [];
            ret (n 2);
          ];
        fn "main" [] (Some u32)
          [
            decl_arr "x" u8 2;
            mk_symbolic "x" 2 "x";
            decl "a" u32 (Some (call "classify" [ idx (v "x") (n 0) ]));
            decl "b" u32 (Some (call "classify" [ idx (v "x") (n 1) ]));
            halt ((v "a" *! n 3) +! v "b");
          ];
      ]
  in
  let _cfg, result = run_program cu in
  Alcotest.(check int) "9 paths" 9 result.Engine.Driver.paths_explored;
  Alcotest.(check bool) "exhausted" true result.Engine.Driver.exhausted

let test_symbolic_div_by_zero () =
  let cu =
    cunit ~entry:"main"
      [
        fn "main" [] (Some u32)
          [
            decl_arr "x" u8 1;
            mk_symbolic "x" 1 "x";
            halt (n 100 /! cast u32 (idx (v "x") (n 0)));
          ];
      ]
  in
  let _cfg, result = run_program cu in
  let errors =
    List.filter (function Engine.Errors.Error Engine.Errors.Division_by_zero -> true | _ -> false)
      (terminations result)
  in
  Alcotest.(check int) "one division-by-zero path" 1 (List.length errors);
  Alcotest.(check int) "two paths total" 2 result.Engine.Driver.paths_explored;
  (* the error test case must have input 0 *)
  let err_tc =
    List.find
      (fun tc -> tc.Engine.Testcase.termination = Engine.Errors.Error Engine.Errors.Division_by_zero)
      result.Engine.Driver.tests
  in
  Alcotest.(check char) "divisor input is 0" '\000' (List.assoc "x" err_tc.Engine.Testcase.inputs).[0]

let test_assert_finds_input () =
  let cu =
    cunit ~entry:"main"
      [
        fn "main" [] (Some u32)
          [
            decl_arr "x" u8 1;
            mk_symbolic "x" 1 "x";
            assert_ (idx (v "x") (n 0) <>! n 42) "x must not be 42";
            halt (n 0);
          ];
      ]
  in
  let _cfg, result = run_program cu in
  let failing =
    List.find
      (fun tc -> Engine.Errors.is_error tc.Engine.Testcase.termination)
      result.Engine.Driver.tests
  in
  Alcotest.(check char) "counterexample is 42" '\042' (List.assoc "x" failing.Engine.Testcase.inputs).[0]

let test_assume_prunes () =
  let cu =
    cunit ~entry:"main"
      [
        fn "main" [] (Some u32)
          [
            decl_arr "x" u8 1;
            mk_symbolic "x" 1 "x";
            expr (syscall sys_assume [ idx (v "x") (n 0) <! n 3 ]);
            if_ (idx (v "x") (n 0) ==! n 200) [ halt (n 1) ] [ halt (n 0) ];
          ];
      ]
  in
  let _cfg, result = run_program cu in
  (* x < 3 makes x == 200 infeasible: only one path remains *)
  Alcotest.(check int) "one path" 1 result.Engine.Driver.paths_explored

(* --- searchers ----------------------------------------------------------------- *)

let test_searchers_agree_on_path_count () =
  List.iter
    (fun strategy ->
      let _cfg, result = run_program ~strategy sym_branch_unit in
      Alcotest.(check int) (strategy ^ " explores both paths") 2 result.Engine.Driver.paths_explored)
    [ "dfs"; "bfs"; "random-path"; "cov-opt"; "interleaved" ]

(* Regression for the dfs/bfs stale-key leak: the driver re-adds the
   stepped state every step, and job transfers remove states behind the
   ordering's back.  Neither pattern may lose or duplicate a state (the
   model-based property in test_props.ml covers the general case). *)
let test_searcher_no_stale_key_leak () =
  let program = compile sym_branch_unit in
  let st0 = Engine.State.init program ~env:() ~args:[] in
  let state_at path = { st0 with Engine.State.path = List.rev path } in
  List.iter
    (fun name ->
      let s = Engine.Searcher.of_name ~rng:(Random.State.make [| 3 |]) name in
      (* driver pattern: select, step (same path), re-add — 1000 times *)
      s.Engine.Searcher.add st0;
      for _ = 1 to 1000 do
        match s.Engine.Searcher.select () with
        | Some st -> s.Engine.Searcher.add st
        | None -> Alcotest.failf "%s lost the only state" name
      done;
      Alcotest.(check int) (name ^ ": one live state") 1 (s.Engine.Searcher.size ());
      (* transfer pattern: add a distinct path, then remove it — 1000 times *)
      for i = 1 to 1000 do
        let st = state_at [ Engine.Path.Sys i ] in
        s.Engine.Searcher.add st;
        s.Engine.Searcher.remove (Engine.State.path st)
      done;
      Alcotest.(check int) (name ^ ": removed states gone") 1 (s.Engine.Searcher.size ());
      (* the surviving state is still selectable, and only once *)
      (match s.Engine.Searcher.select () with
      | Some st -> Alcotest.(check bool) (name ^ ": the root survives") true (st.Engine.State.path = [])
      | None -> Alcotest.failf "%s lost the live state after churn" name);
      Alcotest.(check bool) (name ^ ": then empty") true (s.Engine.Searcher.select () = None))
    [ "dfs"; "bfs"; "random-path"; "cov-opt"; "interleaved" ]

(* Three forks on two symbolic bytes, one arm infeasible: 7 paths over 100
   selections. *)
let multi_fork_unit =
  cunit ~entry:"main"
    [
      fn "main" [] (Some u32)
        [
          decl_arr "x" u8 2;
          mk_symbolic "x" 2 "x";
          decl "r" u32 (Some (n 0));
          if_ (idx (v "x") (n 0) <! n 10) [ set (v "r") (n 1) ] [ set (v "r") (n 2) ];
          if_ (idx (v "x") (n 1) <! n 20) [ set (v "r") (v "r" +! n 4) ] [];
          if_ (idx (v "x") (n 0) ==! idx (v "x") (n 1)) [ halt (v "r") ] [ halt (n 9) ];
        ];
    ]

(* The path of every selection, run-length encoded as "path*count" ("."
   for the root, "*1" omitted). *)
let selection_trace strategy =
  let s = Engine.Searcher.of_name ~rng:(Random.State.make [| 7 |]) strategy in
  let seq = ref [] in
  let select () =
    let r = s.Engine.Searcher.select () in
    Option.iter (fun st -> seq := Engine.Path.to_string (Engine.State.path st) :: !seq) r;
    r
  in
  let searcher = { s with Engine.Searcher.select } in
  ignore (Engine.Driver.run_pure ~searcher (compile multi_fork_unit) ~args:[]);
  let rec runs acc = function
    | [] -> acc
    | p :: rest -> (
      match acc with
      | (q, k) :: acc' when q = p -> runs ((q, k + 1) :: acc') rest
      | _ -> runs ((p, 1) :: acc) rest)
  in
  runs [] !seq
  |> List.map (fun (p, k) -> (if p = "" then "." else p) ^ if k = 1 then "" else "*" ^ string_of_int k)
  |> String.concat " "

(* Every selection runs a quantum that ends at the next fork, so each
   node is selected once: dfs keeps the per-instruction path order, bfs
   becomes level order. *)
let test_dfs_bfs_order_pinned () =
  Alcotest.(check string) "dfs" ". F FF FFF FFT FT FTF FTT T TF TT TTF TTT" (selection_trace "dfs");
  Alcotest.(check string) "bfs" ". T F TT TF FT FF TTT TTF FTT FTF FFT FFF" (selection_trace "bfs")

(* Pearson's statistic of observed counts against expected shares. *)
let chi_square counts shares =
  let total = float_of_int (Array.fold_left ( + ) 0 counts) in
  let sum = Array.fold_left ( +. ) 0.0 shares in
  let x = ref 0.0 in
  Array.iteri
    (fun i c ->
      let e = total *. shares.(i) /. sum in
      x := !x +. (((float_of_int c -. e) ** 2.0) /. e))
    counts;
  !x

module SC = Engine.Searcher.Core

(* Select and write back [rounds] times: a live pick is re-added as a
   step that did not fork would, a virtual one (which left the core) is
   queued again.  Counts how often each candidate is picked, by [bucket]
   of its root-first path.  [select] defaults to the closure searcher
   [s], which holds only live states. *)
let pick_counts ?core s states ~buckets ~bucket ~rounds =
  let pick =
    match core with
    | Some c -> (
      fun () ->
        match SC.select c with
        | Some (SC.Live st) ->
          SC.add c st;
          Engine.State.path st
        | Some (SC.Virtual (p, ())) ->
          SC.add_virtual c p ();
          p
        | None -> Alcotest.fail "core ran dry")
    | None -> (
      List.iter s.Engine.Searcher.add states;
      fun () ->
        match s.Engine.Searcher.select () with
        | Some st ->
          s.Engine.Searcher.add st;
          Engine.State.path st
        | None -> Alcotest.fail "searcher ran dry")
  in
  let counts = Array.make buckets 0 in
  for _ = 1 to rounds do
    let b = bucket (pick ()) in
    counts.(b) <- counts.(b) + 1
  done;
  counts

(* A core of [name] holding [states] and virtual candidates at [virtuals]. *)
let core_with name states virtuals =
  let c = SC.of_name ~rng:(Random.State.make [| 11 |]) name in
  List.iter (SC.add c) states;
  List.iter (fun p -> SC.add_virtual c p ()) virtuals;
  c

(* Weights 1, 1/2, 1/4, 1/8 (staleness 0, 1, 3, 7).  The bound is the
   chi-square 0.1% critical value at 3 degrees of freedom.  Virtual
   candidates weigh 0: queued beside the live states they are never
   picked and leave the live proportions as they are, and a population
   of virtual candidates alone still yields every one of them. *)
let test_cov_opt_proportional_to_weight () =
  let st0 = Engine.State.init (compile sym_branch_unit) ~env:() ~args:[] in
  let states =
    List.mapi
      (fun i steps -> { st0 with Engine.State.path = [ Engine.Path.Sys i ]; steps; last_new_cover = 0 })
      [ 0; 1; 3; 7 ]
  in
  let virtuals = List.init 3 (fun i -> [ Engine.Path.Sys (4 + i) ]) in
  let bucket = function [ Engine.Path.Sys i ] -> i | _ -> Alcotest.fail "unexpected path" in
  let shares = [| 1.0; 0.5; 0.25; 0.125 |] in
  let s = Engine.Searcher.of_name ~rng:(Random.State.make [| 11 |]) "cov-opt" in
  let counts = pick_counts s states ~buckets:4 ~bucket ~rounds:20_000 in
  let x = chi_square counts shares in
  Alcotest.(check bool) (Printf.sprintf "chi-square %.2f < 16.27" x) true (x < 16.27);
  let core = core_with "cov-opt" states virtuals in
  let counts = pick_counts ~core s [] ~buckets:7 ~bucket ~rounds:20_000 in
  Alcotest.(check (list int)) "no virtual pick while a live one exists" [ 0; 0; 0 ]
    (Array.to_list (Array.sub counts 4 3));
  let x = chi_square (Array.sub counts 0 4) shares in
  Alcotest.(check bool) (Printf.sprintf "with virtuals: chi-square %.2f < 16.27" x) true (x < 16.27);
  let core = core_with "cov-opt" [] virtuals in
  let drained =
    List.init 3 (fun _ ->
        match SC.select core with
        | Some (SC.Virtual (p, ())) -> bucket p
        | Some (SC.Live _) -> Alcotest.fail "a live pick from virtual candidates"
        | None -> Alcotest.fail "an all-virtual population selected nothing")
  in
  Alcotest.(check (list int)) "all-virtual population selects each once" [ 4; 5; 6 ]
    (List.sort compare drained);
  Alcotest.(check bool) "then empty" true (SC.select core = None)

(* Root subtrees of 1, 3 and 5 candidates: each is picked a third of the
   time, whatever its size, and whether its candidates are live or
   virtual.  The bound is the chi-square 0.1% critical value at 2
   degrees of freedom. *)
let test_random_path_uniform_at_root () =
  let st0 = Engine.State.init (compile sym_branch_unit) ~env:() ~args:[] in
  let paths =
    List.concat_map
      (fun (root, leaves) -> List.init leaves (fun j -> [ Engine.Path.Sched root; Engine.Path.Sys j ]))
      [ (0, 1); (1, 3); (2, 5) ]
  in
  let live p = { st0 with Engine.State.path = List.rev p } in
  let s = Engine.Searcher.of_name ~rng:(Random.State.make [| 11 |]) "random-path" in
  let bucket = function Engine.Path.Sched r :: _ -> r | _ -> Alcotest.fail "unexpected path" in
  let counts = pick_counts s (List.map live paths) ~buckets:3 ~bucket ~rounds:9_000 in
  let x = chi_square counts [| 1.0; 1.0; 1.0 |] in
  Alcotest.(check bool) (Printf.sprintf "chi-square %.2f < 13.82" x) true (x < 13.82);
  (* the lone candidate of subtree 0 and the even leaves elsewhere are
     virtual *)
  let virt = function [ Engine.Path.Sched 0; _ ] -> true | [ _; Engine.Path.Sys j ] -> j mod 2 = 0 | _ -> false in
  let core =
    core_with "random-path" (List.map live (List.filter (fun p -> not (virt p)) paths)) (List.filter virt paths)
  in
  let counts = pick_counts ~core s [] ~buckets:3 ~bucket ~rounds:9_000 in
  let x = chi_square counts [| 1.0; 1.0; 1.0 |] in
  Alcotest.(check bool) (Printf.sprintf "with virtuals: chi-square %.2f < 13.82" x) true (x < 13.82)

(* --- hang detection ------------------------------------------------------------- *)

let test_instruction_limit_detects_infinite_loop () =
  let cu =
    cunit ~entry:"main"
      [ fn "main" [] (Some u32) [ while_ (n 1) []; halt (n 0) ] ]
  in
  let _cfg, result = run_program ~max_steps:5000 cu in
  match terminations result with
  | [ Engine.Errors.Error Engine.Errors.Instruction_limit ] -> ()
  | other ->
    Alcotest.failf "expected instruction-limit, got %s"
      (String.concat ","
         (List.map Engine.Errors.termination_to_string other))

let test_deadlock_detection () =
  let cu =
    cunit ~entry:"main"
      [
        fn "main" [] (Some u32)
          [
            decl "wl" i64 (Some (syscall sys_get_wlist []));
            expr (syscall sys_sleep [ v "wl" ]);
            halt (n 0);
          ];
      ]
  in
  let _cfg, result = run_program cu in
  match terminations result with
  | [ Engine.Errors.Error Engine.Errors.Deadlock ] -> ()
  | other ->
    Alcotest.failf "expected deadlock, got %s"
      (String.concat "," (List.map Engine.Errors.termination_to_string other))

(* --- threads and processes --------------------------------------------------------- *)

let test_cooperative_threads () =
  (* worker adds its argument to a global; cooperative round-robin makes
     the interleaving deterministic *)
  let cu =
    cunit ~entry:"main"
      ~globals:[ global "total" u32 ]
      [
        fn "worker" [ ("k", i64) ] None
          [ set (v "total") (v "total" +! cast u32 (v "k")) ];
        fn "main" [] (Some u32)
          [
            expr (syscall sys_thread_create [ str "worker"; n 5 ]);
            expr (syscall sys_thread_create [ str "worker"; n 7 ]);
            (* yield until both workers ran *)
            expr (syscall sys_preempt []);
            expr (syscall sys_preempt []);
            expr (syscall sys_preempt []);
            halt (v "total");
          ];
      ]
  in
  let _cfg, result = run_program cu in
  match terminations result with
  | [ Engine.Errors.Exit 12L ] -> ()
  | other ->
    Alcotest.failf "expected exit 12, got %s"
      (String.concat "," (List.map Engine.Errors.termination_to_string other))

let test_sleep_notify () =
  let cu =
    cunit ~entry:"main"
      ~globals:[ global "flag" u32; global "wl" i64 ]
      [
        fn "producer" [ ("k", i64) ] None
          [ set (v "flag") (n 99); expr (syscall sys_notify [ v "wl"; n 1 ]) ];
        fn "main" [] (Some u32)
          [
            set (v "wl") (syscall sys_get_wlist []);
            expr (syscall sys_thread_create [ str "producer"; n 0 ]);
            while_ (v "flag" ==! n 0) [ expr (syscall sys_sleep [ v "wl" ]) ];
            halt (v "flag");
          ];
      ]
  in
  let _cfg, result = run_program cu in
  match terminations result with
  | [ Engine.Errors.Exit 99L ] -> ()
  | other ->
    Alcotest.failf "expected exit 99, got %s"
      (String.concat "," (List.map Engine.Errors.termination_to_string other))

let test_process_fork_and_shared_memory () =
  (* parent shares a buffer, forks; the child writes to it and exits; the
     parent sees the write because the object is in the CoW domain's
     shared pool *)
  let cu =
    cunit ~entry:"main"
      [
        fn "main" [] (Some u32)
          [
            decl_arr "buf" u32 1;
            expr (syscall sys_make_shared [ addr (idx (v "buf") (n 0)) ]);
            decl "pid" i64 (Some (syscall sys_process_fork []));
            if_
              (v "pid" ==! n 0)
              [
                set (idx (v "buf") (n 0)) (n 123);
                expr (syscall sys_process_terminate [ n 0 ]);
              ]
              [];
            (* cooperative: child runs when parent preempts *)
            expr (syscall sys_preempt []);
            halt (idx (v "buf") (n 0));
          ];
      ]
  in
  let _cfg, result = run_program cu in
  match terminations result with
  | [ Engine.Errors.Exit 123L ] -> ()
  | other ->
    Alcotest.failf "expected exit 123, got %s"
      (String.concat "," (List.map Engine.Errors.termination_to_string other))

let test_fork_isolated_address_spaces () =
  (* without make_shared, the child's write must NOT be visible *)
  let cu =
    cunit ~entry:"main"
      [
        fn "main" [] (Some u32)
          [
            decl_arr "buf" u32 1;
            set (idx (v "buf") (n 0)) (n 7);
            decl "pid" i64 (Some (syscall sys_process_fork []));
            if_
              (v "pid" ==! n 0)
              [
                set (idx (v "buf") (n 0)) (n 123);
                expr (syscall sys_process_terminate [ n 0 ]);
              ]
              [];
            expr (syscall sys_preempt []);
            halt (idx (v "buf") (n 0));
          ];
      ]
  in
  let _cfg, result = run_program cu in
  match terminations result with
  | [ Engine.Errors.Exit 7L ] -> ()
  | other ->
    Alcotest.failf "expected exit 7 (isolation), got %s"
      (String.concat "," (List.map Engine.Errors.termination_to_string other))

let test_get_context () =
  let cu =
    cunit ~entry:"main"
      [
        fn "main" [] (Some u32)
          [
            decl "ctx" i64 (Some (syscall sys_get_context []));
            (* main thread: pid 0, tid 0 *)
            halt (cast u32 (v "ctx"));
          ];
      ]
  in
  let _cfg, result = run_program cu in
  match terminations result with
  | [ Engine.Errors.Exit 0L ] -> ()
  | other ->
    Alcotest.failf "expected exit 0, got %s"
      (String.concat "," (List.map Engine.Errors.termination_to_string other))

(* --- scheduling policies --------------------------------------------------------------- *)

let sched_unit =
  (* two workers each append their id; under fork-all scheduling the
     engine explores multiple interleavings *)
  cunit ~entry:"main"
    ~globals:[ global "order" u32 ]
    [
      fn "worker" [ ("k", i64) ] None
        [ set (v "order") ((v "order" *! n 10) +! cast u32 (v "k")) ];
      fn "main" [] (Some u32)
        [
          expr (syscall sys_set_scheduler [ n 1 ]); (* 1 = fork-all *)
          expr (syscall sys_thread_create [ str "worker"; n 1 ]);
          expr (syscall sys_thread_create [ str "worker"; n 2 ]);
          expr (syscall sys_preempt []);
          expr (syscall sys_preempt []);
          expr (syscall sys_preempt []);
          halt (v "order");
        ];
    ]

let test_fork_all_scheduler_explores_interleavings () =
  let _cfg, result = run_program sched_unit in
  Alcotest.(check bool) "more than one interleaving" true (result.Engine.Driver.paths_explored > 1);
  let codes =
    List.filter_map (function Engine.Errors.Exit c -> Some c | _ -> None) (terminations result)
    |> List.sort_uniq compare
  in
  (* both serialized orders of the two workers must appear *)
  Alcotest.(check bool) "order 12 seen" true (List.mem 12L codes);
  Alcotest.(check bool) "order 21 seen" true (List.mem 21L codes)

(* --- instruction-level preemption: race detection ---------------------------------------- *)

let race_unit =
  (* the classic lost update: a worker thread and the main thread both do
     an unlocked read-modify-write on a shared counter.  Cooperative
     scheduling never interleaves inside the critical section, so the bug
     needs instruction-level preemption (paper section 4.2). *)
  cunit ~entry:"main"
    ~globals:[ global "counter" u32; global "done_flag" u32; global "wl" i64 ]
    [
      fn "bump" [ ("k", i64) ] None
        [
          decl "tmp" u32 (Some (v "counter"));
          set (v "tmp") (v "tmp" +! n 1);
          set (v "counter") (v "tmp");
        ];
      fn "worker" [ ("k", i64) ] None
        [
          call_void "bump" [ n 0 ];
          set (v "done_flag") (n 1);
          expr (syscall sys_notify [ v "wl"; n 1 ]);
        ];
      fn "main" [] (Some u32)
        [
          set (v "wl") (syscall sys_get_wlist []);
          (* iterative context bounding (two preemptions) keeps the
             instruction-level interleaving space tractable *)
          expr (syscall sys_set_scheduler [ n 102 ]);
          expr (syscall sys_thread_create [ str "worker"; n 0 ]);
          call_void "bump" [ n 0 ];
          while_ (v "done_flag" ==! n 0) [ expr (syscall sys_sleep [ v "wl" ]) ];
          assert_ (v "counter" ==! n 2) "no update lost";
          halt (v "counter");
        ];
    ]

let run_with_preemption ?preempt_interval cu =
  let program = compile cu in
  let solver = Smt.Solver.create () in
  let cfg =
    Engine.Executor.make_config ~solver ~handler:Engine.Executor.no_env_handler
      ~nlines:program.Cvm.Program.nlines
      ~preempt_interval ()
  in
  let rng = Random.State.make [| 7 |] in
  let searcher = Engine.Searcher.of_name ~rng "dfs" in
  let st0 = Engine.State.init program ~env:() ~args:[] in
  Engine.Driver.run cfg searcher st0 ~collect_tests:1000

let count_assert_failures r =
  List.length
    (List.filter
       (fun tc ->
         match tc.Engine.Testcase.termination with
         | Engine.Errors.Error (Engine.Errors.Assert_failed _) -> true
         | _ -> false)
       r.Engine.Driver.tests)

let test_race_needs_instruction_preemption () =
  (* without instruction-level preemption the lost update is invisible *)
  let coarse = run_with_preemption race_unit in
  Alcotest.(check int) "cooperative scheduling misses the race" 0
    (count_assert_failures coarse);
  (* with it, some interleaving loses an update and the assert fires *)
  let fine = run_with_preemption ~preempt_interval:1 race_unit in
  Alcotest.(check bool) "instruction-level preemption finds the lost update" true
    (count_assert_failures fine > 0);
  Alcotest.(check bool) "many interleavings explored" true
    (fine.Engine.Driver.paths_explored > coarse.Engine.Driver.paths_explored)

(* --- coverage --------------------------------------------------------------------------- *)

let test_coverage_accounting () =
  let cfg, result = run_program sym_branch_unit in
  Alcotest.(check bool) "full coverage on exhaustive run" true (result.Engine.Driver.coverage >= 0.99);
  Alcotest.(check bool) "covered lines counted" true (Engine.Executor.coverage_count cfg > 0)

let test_coverage_goal_stops_early () =
  let program = compile sym_branch_unit in
  let rng = Random.State.make [| 7 |] in
  let searcher = Engine.Searcher.of_name ~rng "dfs" in
  let _cfg, result =
    Engine.Driver.run_pure ~goal:(Engine.Driver.Coverage 0.10) ~searcher program ~args:[]
  in
  Alcotest.(check bool) "stopped before exhausting" true (not result.Engine.Driver.exhausted || result.Engine.Driver.paths_explored <= 2)

(* --- quantum stepping ------------------------------------------------------------------------ *)

(* The one coverage bit-vector module: a union grows to the longer
   vector without touching its inputs' bits, and a program with no
   coverable line reads fully covered on every path that reports a
   fraction. *)
let test_coverage_vectors () =
  let module C = Engine.Coverage in
  let a = C.create ~nlines:3 in
  Alcotest.(check bool) "line 2 new" true (C.add a 2);
  Alcotest.(check bool) "line 2 again" false (C.add a 2);
  let b = C.create ~nlines:20 in
  ignore (C.add b 17);
  let u = C.union_into a b in
  Alcotest.(check int) "grown to the longer vector" (Bytes.length b) (Bytes.length u);
  Alcotest.(check (list bool)) "bits of both" [ true; true; false ]
    (List.map (C.mem u) [ 2; 17; 3 ]);
  Alcotest.(check bool) "in place when long enough" true (C.union_into u a == u);
  Alcotest.(check int) "popcount" 2 (C.popcount u);
  Alcotest.(check (float 0.0)) "fraction" 0.5 (C.fraction ~coverable:4 2);
  Alcotest.(check (float 0.0)) "no coverable line is full coverage" 1.0
    (C.fraction ~coverable:0 0)

let bare_config program =
  Engine.Executor.make_config ~solver:(Smt.Solver.create ()) ~handler:Engine.Executor.no_env_handler
    ~nlines:program.Cvm.Program.nlines ()

let retired cfg = cfg.Engine.Executor.stats.Engine.Executor.useful_instrs

(* A concrete loop that outlasts several quanta. *)
let counting_unit iters =
  cunit ~entry:"main"
    [
      fn "main" [] (Some u32)
        [
          decl "acc" u32 (Some (n 0));
          for_range "i" ~from:(n 0) ~below:(n iters) [ set (v "acc") (v "acc" +! v "i") ];
          halt (v "acc");
        ];
    ]

let test_quantum_stops_after_fuel () =
  let program = compile (counting_unit 100) in
  let cfg = bare_config program in
  let st0 = Engine.State.init program ~env:() ~args:[] in
  match Engine.Executor.step cfg ~fuel:7 st0 with
  | { Engine.Executor.running = [ st ]; finished = [] } -> (
    Alcotest.(check int) "exactly the fuel retired" 7 (retired cfg);
    Alcotest.(check int) "the state counts them" 7 st.Engine.State.steps;
    Alcotest.(check bool) "no choice pushed" true (st.Engine.State.path == st0.Engine.State.path);
    match Engine.Executor.step cfg st with
    | { Engine.Executor.running = [ _ ]; finished = [] } ->
      Alcotest.(check int) "default fuel is one quantum" (7 + Engine.Executor.quantum) (retired cfg)
    | _ -> Alcotest.fail "the loop ended early")
  | _ -> Alcotest.fail "a concrete quantum must continue the state"

let test_quantum_stops_at_termination () =
  let program = compile (counting_unit 3) in
  let _, reference = Engine.Driver.run_pure ~searcher:(Engine.Searcher.dfs ()) program ~args:[] in
  let cfg = bare_config program in
  match Engine.Executor.step cfg ~fuel:10_000 (Engine.State.init program ~env:() ~args:[]) with
  | { Engine.Executor.running = []; finished = [ (_, Engine.Errors.Exit 3L) ] } ->
    Alcotest.(check int) "the whole path in one quantum" reference.Engine.Driver.instructions
      (retired cfg)
  | _ -> Alcotest.fail "expected one exit with code 3"

(* The other arm of the assert terminates: the fork still ends the
   quantum, with the surviving arm's choice pushed. *)
let test_quantum_stops_at_one_sided_fork () =
  let program =
    compile
      (cunit ~entry:"main"
         [
           fn "main" [] (Some u32)
             [
               decl_arr "x" u8 1;
               mk_symbolic "x" 1 "x";
               assert_ (idx (v "x") (n 0) <! n 10) "small";
               decl "acc" u32 (Some (n 0));
               for_range "i" ~from:(n 0) ~below:(n 5) [ set (v "acc") (v "acc" +! v "i") ];
               halt (v "acc");
             ];
         ])
  in
  let cfg = bare_config program in
  match Engine.Executor.step cfg ~fuel:10_000 (Engine.State.init program ~env:() ~args:[]) with
  | {
   Engine.Executor.running = [ st ];
   finished = [ (_, Engine.Errors.Error (Engine.Errors.Assert_failed "small")) ];
  } -> (
    Alcotest.(check string) "the surviving arm's choice" "T"
      (Engine.Path.to_string (Engine.State.path st));
    Alcotest.(check int) "the assert was the last instruction" st.Engine.State.steps (retired cfg);
    match Engine.Executor.step cfg ~fuel:10_000 st with
    | { Engine.Executor.running = []; finished = [ (_, Engine.Errors.Exit 10L) ] } -> ()
    | _ -> Alcotest.fail "the next quantum must run to the exit")
  | _ -> Alcotest.fail "expected one running arm and one assert failure"

(* The driver hands the last quantum only the remaining budget. *)
let test_instructions_goal_exact () =
  let program = compile (counting_unit 1000) in
  List.iter
    (fun n ->
      let _, r =
        Engine.Driver.run_pure ~goal:(Engine.Driver.Instructions n) ~searcher:(Engine.Searcher.dfs ())
          program ~args:[]
      in
      Alcotest.(check int) (Printf.sprintf "stops at %d" n) n r.Engine.Driver.instructions)
    [ 1; 49; 50; 51; 123; 1000 ]

(* --- a host-independent perf counter ------------------------------------------------------------- *)

(* printf fmt4 through the [Cloud9.run_local] setup at seed 42, with the
   searcher's selections counted.  A selection runs a quantum, which buys
   ~28 instructions here (per-instruction stepping selected once per
   instruction).  Minor words per useful instruction are deterministic for
   a build: 148.2 when pinned, against 315.8 under per-instruction
   stepping on persistent states. *)
let test_perf_counters () =
  let program = Targets.Printf_target.program ~fmt_len:4 in
  let solver = Smt.Solver.create () in
  let o = Core.Cloud9.default_options in
  let cfg =
    Posix.Api.make_config ~solver ?max_steps:o.Core.Cloud9.max_steps
      ~check_div_zero:o.Core.Cloud9.check_div_zero ~nlines:program.Cvm.Program.nlines ()
  in
  let s = Engine.Searcher.of_name ~rng:(Random.State.make [| 42 |]) o.Core.Cloud9.strategy in
  let selects = ref 0 in
  let select () =
    incr selects;
    s.Engine.Searcher.select ()
  in
  let searcher = { s with Engine.Searcher.select } in
  let st0 = Posix.Api.initial_state program ~args:[] in
  let w0 = Gc.minor_words () in
  let r = Engine.Driver.run ~collect_tests:max_int cfg searcher st0 in
  let words = Gc.minor_words () -. w0 in
  let useful = float_of_int r.Engine.Driver.instructions in
  let per_instr = words /. useful in
  Printf.printf "selects %d, useful %d, minor words per useful instruction %.1f\n" !selects
    r.Engine.Driver.instructions per_instr;
  Alcotest.(check bool) "exhausted" true r.Engine.Driver.exhausted;
  Alcotest.(check bool) "at most 0.1 selections per useful instruction" true
    (float_of_int !selects /. useful <= 0.1);
  Alcotest.(check bool) "minor words per useful instruction within 20% of the pin" true
    (per_instr <= 148.2 *. 1.2)

(* --- determinism -------------------------------------------------------------------------- *)

let test_deterministic_runs () =
  let run () =
    let _cfg, r = run_program ~strategy:"interleaved" sym_branch_unit in
    ( r.Engine.Driver.paths_explored,
      List.map (fun tc -> tc.Engine.Testcase.path) r.Engine.Driver.tests )
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check bool) "identical runs" true (r1 = r2)

let () =
  Alcotest.run "engine"
    [
      ( "forking",
        [
          Alcotest.test_case "symbolic fork" `Quick test_symbolic_fork;
          Alcotest.test_case "test inputs satisfy path" `Quick test_testcase_inputs_satisfy_path;
          Alcotest.test_case "exhaustive path count" `Quick test_exhaustive_path_count;
          Alcotest.test_case "symbolic div by zero" `Quick test_symbolic_div_by_zero;
          Alcotest.test_case "assert finds input" `Quick test_assert_finds_input;
          Alcotest.test_case "assume prunes" `Quick test_assume_prunes;
        ] );
      ( "searchers",
        [
          Alcotest.test_case "all searchers complete" `Quick test_searchers_agree_on_path_count;
          Alcotest.test_case "no stale-key leak" `Quick test_searcher_no_stale_key_leak;
          Alcotest.test_case "dfs/bfs order pinned" `Quick test_dfs_bfs_order_pinned;
          Alcotest.test_case "cov-opt proportional to weight" `Quick
            test_cov_opt_proportional_to_weight;
          Alcotest.test_case "random-path uniform at root" `Quick test_random_path_uniform_at_root;
        ] );
      ( "hangs",
        [
          Alcotest.test_case "instruction limit" `Quick test_instruction_limit_detects_infinite_loop;
          Alcotest.test_case "deadlock" `Quick test_deadlock_detection;
        ] );
      ( "threads",
        [
          Alcotest.test_case "cooperative threads" `Quick test_cooperative_threads;
          Alcotest.test_case "sleep/notify" `Quick test_sleep_notify;
          Alcotest.test_case "fork + shared memory" `Quick test_process_fork_and_shared_memory;
          Alcotest.test_case "fork isolation" `Quick test_fork_isolated_address_spaces;
          Alcotest.test_case "get_context" `Quick test_get_context;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "fork-all interleavings" `Quick
            test_fork_all_scheduler_explores_interleavings;
          Alcotest.test_case "race detection" `Quick test_race_needs_instruction_preemption;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "accounting" `Quick test_coverage_accounting;
          Alcotest.test_case "goal stops early" `Quick test_coverage_goal_stops_early;
          Alcotest.test_case "bit vectors" `Quick test_coverage_vectors;
        ] );
      ( "quantum",
        [
          Alcotest.test_case "stops after the fuel" `Quick test_quantum_stops_after_fuel;
          Alcotest.test_case "stops at a termination" `Quick test_quantum_stops_at_termination;
          Alcotest.test_case "stops at a one-sided fork" `Quick test_quantum_stops_at_one_sided_fork;
          Alcotest.test_case "instruction goal exact" `Quick test_instructions_goal_exact;
        ] );
      ("perf", [ Alcotest.test_case "selections and minor words per instruction" `Quick test_perf_counters ]);
      ("determinism", [ Alcotest.test_case "identical runs" `Quick test_deterministic_runs ]);
    ]
