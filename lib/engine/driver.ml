(* Single-node exploration driver: the classic KLEE loop.  Pick a state
   with the searcher, run it for one quantum, insert the successors, record
   test cases at terminations — until a goal is met or the tree is
   exhausted.

   The cluster layer (lib/cluster) replaces this loop with per-worker
   frontier management; this driver is what a "1-worker Cloud9" runs and
   is also the baseline for all comparisons. *)

type goal =
  | Exhaust                   (* explore every path *)
  | Coverage of float         (* stop at this fraction of coverable lines *)
  | Instructions of int       (* stop after this many retired instructions *)
  | Paths of int              (* stop after this many completed paths *)

type 'env result = {
  tests : Testcase.t list;    (* newest first *)
  paths_explored : int;
  pruned_paths : int;
  exhausted : bool;
  coverage : float;           (* fraction of coverable lines covered *)
  instructions : int;
  errors : int;
  solver_stats : Smt.Solver.stats; (* snapshot of this run's solver counters *)
  inc_stats : Smt.Solver.inc_stats; (* snapshot of this run's incremental-solving counters *)
}

let coverage_fraction cfg program =
  Coverage.fraction
    ~coverable:(List.length (Cvm.Program.covered_lines program))
    (Executor.coverage_count cfg)

let goal_met cfg program ~paths = function
  | Exhaust -> false
  | Coverage target -> coverage_fraction cfg program >= target
  | Instructions n -> cfg.Executor.stats.Executor.useful_instrs >= n
  | Paths n -> paths >= n

(* [run cfg searcher st0 ~goal] explores from [st0].  [collect_tests]
   bounds how many test cases are materialized (solving for inputs is the
   expensive part); path counting is unaffected. *)
(* With a sink attached, the single-node driver advances virtual time
   itself: 1 tick per [instrs_per_tick] retired instructions (the
   cluster driver, which owns real virtual time, overrides this by
   driving [Obs.Sink.set_now] directly). *)
let instrs_per_tick = 1000

let run ?(collect_tests = max_int) ?(goal = Exhaust) cfg searcher (st0 : 'env State.t) =
  let program = st0.State.program in
  searcher.Searcher.add st0;
  let tests = ref [] in
  let ntests = ref 0 in
  let paths = ref 0 in
  let pruned = ref 0 in
  let errors = ref 0 in
  let stop = ref false in
  let last_tick = ref (-1) in
  let sample_obs () =
    match cfg.Executor.obs with
    | None -> ()
    | Some s ->
      let stats = cfg.Executor.stats in
      let total = stats.Executor.useful_instrs + stats.Executor.replay_instrs in
      let tick = total / instrs_per_tick in
      if tick <> !last_tick then begin
        last_tick := tick;
        Obs.Sink.set_now s tick;
        Obs.Sink.observe s ~useful:stats.Executor.useful_instrs
          ~replay:stats.Executor.replay_instrs ~idle:0
          ~depth:(searcher.Searcher.size ())
          ~queries:(Smt.Solver.stats cfg.Executor.solver).Smt.Solver.queries
          ~sat_calls:(Smt.Solver.stats cfg.Executor.solver).Smt.Solver.sat_calls
      end
  in
  let note_done term =
    match cfg.Executor.obs with
    | None -> ()
    | Some s ->
      let verdict =
        match term with
        | Errors.Pruned -> "pruned"
        | Errors.Exit _ -> "exit"
        | Errors.Error _ -> "error"
      in
      Obs.Sink.event s (Obs.Event.Path_done { verdict })
  in
  (* an instruction goal stays exact: the last quantum gets only what is left *)
  let fuel () =
    match goal with
    | Instructions n ->
      Some (min Executor.quantum (n - cfg.Executor.stats.Executor.useful_instrs))
    | Exhaust | Coverage _ | Paths _ -> None
  in
  while (not !stop) && searcher.Searcher.size () > 0 do
    match searcher.Searcher.select () with
    | None -> stop := true
    | Some st ->
      let { Executor.running; finished } = Executor.step cfg ?fuel:(fuel ()) st in
      List.iter searcher.Searcher.add running;
      sample_obs ();
      List.iter
        (fun (st, term) ->
          note_done term;
          match term with
          | Errors.Pruned -> incr pruned
          | Errors.Exit _ | Errors.Error _ ->
            incr paths;
            if Errors.is_error term then incr errors;
            if !ntests < collect_tests then begin
              match Testcase.of_state cfg.Executor.solver st term with
              | Some tc ->
                tests := tc :: !tests;
                incr ntests
              | None -> ()
            end)
        finished;
      if goal_met cfg program ~paths:!paths goal then stop := true
  done;
  (match cfg.Executor.obs with
  | None -> ()
  | Some s ->
    let stats = cfg.Executor.stats in
    let total = stats.Executor.useful_instrs + stats.Executor.replay_instrs in
    Obs.Sink.set_now s ((total / instrs_per_tick) + 1);
    Obs.Sink.observe s ~useful:stats.Executor.useful_instrs ~replay:stats.Executor.replay_instrs
      ~idle:0 ~depth:(searcher.Searcher.size ())
      ~queries:(Smt.Solver.stats cfg.Executor.solver).Smt.Solver.queries
      ~sat_calls:(Smt.Solver.stats cfg.Executor.solver).Smt.Solver.sat_calls);
  {
    tests = !tests;
    paths_explored = !paths;
    pruned_paths = !pruned;
    exhausted = searcher.Searcher.size () = 0;
    coverage = coverage_fraction cfg program;
    instructions = cfg.Executor.stats.Executor.useful_instrs;
    errors = !errors;
    solver_stats = Smt.Solver.copy_stats cfg.Executor.solver;
    inc_stats = Smt.Solver.copy_inc_stats cfg.Executor.solver;
  }

(* Convenience wrapper: run a program that needs no environment model. *)
let run_pure ?collect_tests ?goal ?max_steps ~searcher program ~args =
  let solver = Smt.Solver.create () in
  let cfg =
    Executor.make_config ~solver ~handler:Executor.no_env_handler
      ~nlines:program.Cvm.Program.nlines
      ?max_steps:(Option.map Option.some max_steps) ()
  in
  let st0 = State.init program ~env:() ~args in
  (cfg, run ?collect_tests ?goal cfg searcher st0)
