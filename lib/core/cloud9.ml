(* The Cloud9 platform facade: one entry point for writing and running
   symbolic tests (paper section 5), locally (one worker, classic KLEE
   style) or on a simulated cluster of workers with dynamic load
   balancing (section 3).

   A symbolic test is a mini-C program (usually built from a target in
   {!Registry} or with {!Lang.Builder} + {!Posix.Api}) whose inputs are
   marked symbolic via the cloud9_* primitives; running it explores the
   induced execution tree and produces test cases for every path. *)

module Errors = Engine.Errors
module Testcase = Engine.Testcase

type target = {
  name : string;
  kind : string; (* the "Type of Software" column of Table 4 *)
  program : Cvm.Program.t;
}

let target ?(kind = "test program") name program = { name; kind; program }

type options = {
  max_steps : int option;      (* per-path instruction cap (hang detector) *)
  check_div_zero : bool;
  strategy : string;           (* Engine.Searcher.of_name *)
  seed : int;
  collect_tests : int;         (* how many test cases to materialize *)
  goal : Engine.Driver.goal;
}

let default_options =
  {
    max_steps = Some 1_000_000;
    check_div_zero = true;
    strategy = "interleaved";
    seed = 42;
    collect_tests = 64;
    goal = Engine.Driver.Exhaust;
  }

type report = {
  target_name : string;
  paths : int;
  errors : int;
  coverage : float;            (* fraction of coverable source lines *)
  coverage_vector : Bytes.t;   (* the raw line bit vector, for unions *)
  coverable : int;             (* lines with instructions (denominator) *)
  instructions : int;
  exhausted : bool;
  tests : Testcase.t list;
  solver_stats : Smt.Solver.stats;
  inc_stats : Smt.Solver.inc_stats;
}

(* --- single-node runs --------------------------------------------------------- *)

let run_local ?obs ?(options = default_options) (t : target) =
  let solver = Smt.Solver.create ?obs () in
  let cfg =
    Posix.Api.make_config ~solver ?obs ?max_steps:options.max_steps
      ~check_div_zero:options.check_div_zero ~nlines:t.program.Cvm.Program.nlines ()
  in
  let rng = Random.State.make [| options.seed |] in
  let searcher = Engine.Searcher.of_name ~rng options.strategy in
  let st0 = Posix.Api.initial_state t.program ~args:[] in
  let r =
    Engine.Driver.run ~collect_tests:options.collect_tests ~goal:options.goal cfg searcher st0
  in
  {
    target_name = t.name;
    paths = r.Engine.Driver.paths_explored;
    errors = r.Engine.Driver.errors;
    coverage = r.Engine.Driver.coverage;
    coverage_vector = Bytes.copy cfg.Engine.Executor.coverage;
    coverable = List.length (Cvm.Program.covered_lines t.program);
    instructions = r.Engine.Driver.instructions;
    exhausted = r.Engine.Driver.exhausted;
    tests = r.Engine.Driver.tests;
    solver_stats = r.Engine.Driver.solver_stats;
    inc_stats = r.Engine.Driver.inc_stats;
  }

(* --- test-case replay --------------------------------------------------------------- *)

(* Re-execute a generated test case concretely: make_symbolic fills the
   test's recorded bytes instead of fresh symbols, so the run follows one
   path — the one the test case describes.  Returns that path's
   termination; for a bug test, the same bug must reproduce. *)
let replay_test ?(max_steps = 1_000_000) (t : target) (tc : Testcase.t) =
  let solver = Smt.Solver.create () in
  let cfg =
    Posix.Api.make_config ~solver ~max_steps ~concrete_inputs:tc.Testcase.inputs
      ~nlines:t.program.Cvm.Program.nlines ()
  in
  let searcher = Engine.Searcher.dfs () in
  let st0 = Posix.Api.initial_state t.program ~args:[] in
  let r = Engine.Driver.run ~collect_tests:4 cfg searcher st0 in
  match r.Engine.Driver.tests with
  | [ only ] -> Some only.Testcase.termination
  | _ -> None (* residual nondeterminism (e.g. fragmentation choices) *)

(* --- cluster runs ---------------------------------------------------------------- *)

type cluster_options = {
  nworkers : int;
  speed : int;                 (* instructions per worker per tick *)
  heterogeneous : bool;        (* vary worker speeds +-15%, as on EC2 *)
  join_spread : int;           (* ticks between worker arrivals *)
  status_interval : int;
  latency : int;
  lb_disable_at : int option;
  cluster_goal : Cluster.Driver.goal;
  max_ticks : int;
  bucket_ticks : int;
  cworker_max_steps : int option;
  cseed : int;
  fault_plan : Cluster.Faultplan.t; (* crash / loss / partition schedule *)
}

let default_cluster_options =
  {
    nworkers = 4;
    speed = 2000;
    heterogeneous = false;
    join_spread = 0;
    status_interval = 20;
    latency = 2;
    lb_disable_at = None;
    cluster_goal = Cluster.Driver.Exhaust;
    max_ticks = 2_000_000;
    bucket_ticks = 1000;
    cworker_max_steps = Some 1_000_000;
    cseed = 42;
    fault_plan = Cluster.Faultplan.none;
  }

let make_worker ?obs ?(opts = default_cluster_options) (t : target) id =
  (* scope the sink to this worker so engine/solver events carry its id *)
  let obs = Option.map (fun s -> Obs.Sink.for_worker s id) obs in
  let solver = Smt.Solver.create ?obs () in
  let cfg =
    Posix.Api.make_config ~solver ?obs ?max_steps:opts.cworker_max_steps
      ~nlines:t.program.Cvm.Program.nlines ()
  in
  let make_root () = Posix.Api.initial_state t.program ~args:[] in
  Cluster.Worker.create ~id ~cfg ~make_root ~seed:opts.cseed ()

let cluster_config ?obs ?(options = default_cluster_options) ?init_frontier ?(init_bans = [])
    (t : target) =
  let opts = options in
  {
    Cluster.Driver.nworkers = opts.nworkers;
    make_worker = make_worker ?obs ~opts t;
    join_tick = (fun i -> i * opts.join_spread);
    speed =
      (fun i ->
        if opts.heterogeneous then
          (* deterministic spread around the base speed, like the
             paper's 2.3-2.6 GHz heterogeneous cluster *)
          opts.speed * (85 + ((i * 7) mod 31)) / 100
        else opts.speed);
    status_interval = opts.status_interval;
    latency = opts.latency;
    lb_disable_at = opts.lb_disable_at;
    goal = opts.cluster_goal;
    max_ticks = opts.max_ticks;
    bucket_ticks = opts.bucket_ticks;
    coverable_lines = List.length (Cvm.Program.covered_lines t.program);
    faults = opts.fault_plan;
    init_frontier;
    init_bans;
  }

let run_cluster ?obs ?options (t : target) =
  Cluster.Driver.run ?obs (cluster_config ?obs ?options t)

(* A simulated cluster set up to run in slices (Cluster.Driver.advance),
   seeded with the root or, when [resume] is given, with a checkpointed
   frontier and its bans.  Advancing one cluster slice after slice and
   chaining fresh clusters, each resumed from the last slice's export,
   both reach the exact path/error totals of one uninterrupted exhaustive
   run; the campaign daemon does the first for the campaigns it keeps
   warm and the second for the rest (see Service.Daemon). *)
let start_cluster ?obs ?options ?resume (t : target) =
  let init_frontier, init_bans =
    match resume with
    | None -> (None, [])
    | Some (fx : Cluster.Driver.frontier_export) ->
      (Some fx.Cluster.Driver.fx_jobs, fx.Cluster.Driver.fx_bans)
  in
  Cluster.Driver.start ?obs (cluster_config ?obs ?options ?init_frontier ~init_bans t)

(* --- true-multicore runs ------------------------------------------------------------ *)

(* Run the target on [ndomains] real domains (Cluster.Parallel).  The
   worker factory runs *inside* each spawned domain, so the solver, its
   and its caches are domain-local by construction; the observability
   sink is a buffered per-domain view flushed through the core's lock.
   The [fault_plan] applies here too — crash ticks are coordinator ticks
   (~1 ms each) rather than simulation ticks — and a faulty plan arms the
   runtime's heartbeat failure detector.  Simulation-only options (speed,
   latency, status interval) do not apply; beyond the plan, only
   [cworker_max_steps] and [cseed] are read. *)
let parallel_config ?obs ?(ndomains = 2) ?(options = default_cluster_options) (t : target) =
  let opts = options in
  let make_worker i =
    let obs = Option.map (fun s -> Obs.Sink.buffered s i) obs in
    let prof = Option.map Obs.Profile.create obs in
    let solver = Smt.Solver.create ?obs ?prof () in
    let cfg =
      Posix.Api.make_config ~solver ?obs ?max_steps:opts.cworker_max_steps
        ~nlines:t.program.Cvm.Program.nlines ()
    in
    let make_root () = Posix.Api.initial_state t.program ~args:[] in
    Cluster.Worker.create ?prof ~id:i ~cfg ~make_root ~seed:opts.cseed ()
  in
  Cluster.Parallel.default_config ?obs ~faults:opts.fault_plan ~ndomains ~make_worker ()

let run_parallel ?obs ?ndomains ?options (t : target) =
  (* Profiling rides on the sink: a parallel run with observability gets
     wall-clock spans (real-nanosecond time base), while the simulated
     drivers stay purely on virtual ticks.  The hashcons shard-lock
     probe is global state, so it is reset here; contended-wait timing
     (of every shard-lock probe, the run's answer store included) is
     enabled only for profiled runs. *)
  (match obs with
  | Some _ ->
    Smt.Expr.reset_lock_stats ();
    Smt.Shard_lock.set_timing true
  | None -> Smt.Shard_lock.set_timing false);
  let cfg = parallel_config ?obs ?ndomains ?options t in
  Fun.protect
    ~finally:(fun () -> Smt.Shard_lock.set_timing false)
    (fun () ->
      Cluster.Parallel.run
        ~coverable_lines:(List.length (Cvm.Program.covered_lines t.program))
        cfg)

(* --- reporting ---------------------------------------------------------------------- *)

let pp_report fmt (r : report) =
  Format.fprintf fmt "target %s: %d paths (%d errors), %.1f%% line coverage, %d instructions%s@."
    r.target_name r.paths r.errors (100.0 *. r.coverage) r.instructions
    (if r.exhausted then ", exhaustive" else "");
  List.iteri
    (fun i tc ->
      if Errors.is_error tc.Testcase.termination then
        Format.fprintf fmt "  bug %d: %a" i Testcase.pp tc)
    r.tests

let error_tests (r : report) =
  List.filter (fun tc -> Errors.is_error tc.Testcase.termination) r.tests
