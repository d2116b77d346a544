(** Single-node exploration driver — the classic KLEE loop.  A "1-worker
    Cloud9" runs this; it is also the baseline all cluster experiments
    compare against. *)

type goal =
  | Exhaust              (** explore every path *)
  | Coverage of float    (** stop at this fraction of coverable lines *)
  | Instructions of int  (** stop after this many retired instructions *)
  | Paths of int         (** stop after this many completed paths *)

type 'env result = {
  tests : Testcase.t list;  (** newest first; bounded by [collect_tests] *)
  paths_explored : int;
  pruned_paths : int;
  exhausted : bool;
  coverage : float;  (** fraction of coverable lines covered *)
  instructions : int;
  errors : int;
  solver_stats : Smt.Solver.stats;
      (** snapshot of this run's solver counters (see {!Smt.Solver.stats}) *)
  inc_stats : Smt.Solver.inc_stats;
      (** snapshot of this run's incremental-solving counters *)
}

(** Explore from [st0] until the goal is met or the tree is exhausted.
    Each selection runs the state for one {!Executor.step} quantum; under
    an [Instructions] goal the last quantum gets only the remaining
    budget, so the count is exact.  [collect_tests] bounds how many test
    cases are materialized (solving for inputs is the expensive part);
    path counting is unaffected. *)
val run :
  ?collect_tests:int ->
  ?goal:goal ->
  'env Executor.config ->
  'env Searcher.t ->
  'env State.t ->
  'env result

(** Convenience wrapper for programs needing no environment model. *)
val run_pure :
  ?collect_tests:int ->
  ?goal:goal ->
  ?max_steps:int ->
  searcher:unit Searcher.t ->
  Cvm.Program.t ->
  args:Smt.Expr.t list ->
  unit Executor.config * unit result
