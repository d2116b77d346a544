(** The Cloud9 platform facade: one entry point for writing and running
    symbolic tests (paper section 5) — locally (one worker, classic KLEE
    style) or on a simulated cluster with dynamic load balancing
    (section 3). *)

module Errors = Engine.Errors
module Testcase = Engine.Testcase

type target = {
  name : string;
  kind : string;  (** the "Type of Software" column of Table 4 *)
  program : Cvm.Program.t;
}

val target : ?kind:string -> string -> Cvm.Program.t -> target

type options = {
  max_steps : int option;  (** per-path instruction cap (hang detector) *)
  check_div_zero : bool;
  strategy : string;       (** a {!Engine.Searcher.of_name} name *)
  seed : int;
  collect_tests : int;     (** how many test cases to materialize *)
  goal : Engine.Driver.goal;
}

val default_options : options

type report = {
  target_name : string;
  paths : int;
  errors : int;
  coverage : float;          (** fraction of coverable source lines *)
  coverage_vector : Bytes.t; (** raw line bit vector, for unions *)
  coverable : int;
  instructions : int;
  exhausted : bool;
  tests : Testcase.t list;
  solver_stats : Smt.Solver.stats;
  inc_stats : Smt.Solver.inc_stats;
      (** incremental-solving counters of the run's solver *)
}

(** Run a symbolic test on one engine.  [obs] attaches an observability
    sink: fork and solver events are traced and a single-worker timeline
    is sampled as virtual time advances. *)
val run_local : ?obs:Obs.Sink.t -> ?options:options -> target -> report

(** OR coverage vectors and return the covered fraction — the "cumulated
    coverage" arithmetic of Table 5. *)
val union_coverage : coverable:int -> Bytes.t list -> float

(** Re-execute a generated test case concretely (its recorded input bytes
    replace the symbolic data), returning the termination of the single
    path it drives — for a bug test, the same bug.  [None] when the
    program retains nondeterminism beyond its symbolic inputs (e.g.
    symbolic fragmentation), which makes the concrete run fork. *)
val replay_test : ?max_steps:int -> target -> Testcase.t -> Errors.termination option

type cluster_options = {
  nworkers : int;
  speed : int;           (** instructions per worker per tick *)
  heterogeneous : bool;  (** vary worker speeds, as on a real cluster *)
  join_spread : int;     (** ticks between worker arrivals *)
  status_interval : int;
  latency : int;
  lb_disable_at : int option;
  cluster_goal : Cluster.Driver.goal;
  max_ticks : int;
  bucket_ticks : int;
  cworker_max_steps : int option;
  cseed : int;
  fault_plan : Cluster.Faultplan.t;  (** crash / loss / partition schedule *)
}

val default_cluster_options : cluster_options

(** Run the target on a simulated cluster.  [obs] attaches an
    observability sink: every worker gets a scoped view
    ([Obs.Sink.for_worker]), the driver samples per-worker timelines each
    tick, and control-plane events (transfers, leases, crashes) are
    traced alongside engine and solver activity. *)
val run_cluster : ?obs:Obs.Sink.t -> ?options:cluster_options -> target -> Cluster.Driver.result

(** A simulated cluster set up to run in slices — the campaign
    service's unit of scheduling — seeded with the root or, when
    [resume] is given, with a checkpointed frontier and its ban set.
    Each {!Cluster.Driver.advance} runs until [budget] {e useful}
    instructions have executed (replay spent restoring a resumed
    frontier is not charged, so every slice makes exploration progress),
    then drains in-flight transfers to a barrier and returns with
    [result.export] holding the frontier/bans/coverage to persist.
    Advancing one cluster until the export's job list is empty, or
    chaining fresh clusters each resumed from the previous export,
    reaches the exact path/error totals of one uninterrupted exhaustive
    run (the restore≡uninterrupted argument in DESIGN.md).  The campaign
    daemon keeps a bounded number of clusters alive between a campaign's
    slices and resumes the others from their stored frontier. *)
val start_cluster :
  ?obs:Obs.Sink.t ->
  ?options:cluster_options ->
  ?resume:Cluster.Driver.frontier_export ->
  target ->
  Posix.Handler.env Cluster.Driver.t

(** Run the target on [ndomains] real OCaml domains ({!Cluster.Parallel})
    — true multicore, for wall-clock scaling measurements.  Worker
    construction happens inside each spawned domain so solver caches and
    the simplify memo are domain-local; [obs], when given, is exposed to
    each domain as a buffered view ({!Obs.Sink.buffered}) flushed before
    the domain exits, and additionally enables the wall-clock profiler
    (solver query / mailbox wait / steal round-trip / replay spans and
    the hashcons shard-lock contention probe, reset at run start).  The
    [fault_plan] applies here too: crashes kill real domains (crash-stop
    with amnesia, observed at quantum poll points), rejoins spawn fresh
    ones, and seeded loss/delay perturbs the leased job wire — recovery
    through the shared {!Cluster.Transport} keeps the totals exactly
    fault-free, and a faulty plan enables the heartbeat failure
    detector.  Crash ticks are coordinator ticks (~1 ms), not simulation
    ticks.  Beyond the plan, only [cworker_max_steps] and [cseed] are
    read from [options]; the remaining simulation knobs (speed, latency,
    the shared-allocator ablation) do not apply. *)
val run_parallel :
  ?obs:Obs.Sink.t -> ?ndomains:int -> ?options:cluster_options -> target -> Cluster.Parallel.result

(** The runtime configuration {!run_parallel} runs (default 2 domains):
    its in-domain worker factory, fault plan and failure detector, for a
    caller that needs to change a runtime setting before
    {!Cluster.Parallel.run}. *)
val parallel_config :
  ?obs:Obs.Sink.t ->
  ?ndomains:int ->
  ?options:cluster_options ->
  target ->
  Posix.Handler.env Cluster.Parallel.config

val pp_report : Format.formatter -> report -> unit

(** The collected test cases whose termination is an error. *)
val error_tests : report -> Testcase.t list
