(** True-multicore cluster runtime: one OCaml domain per worker.

    Where {!Driver} simulates a Cloud9 deployment in virtual time (the
    deterministic reference), this runtime actually runs each
    {!Worker.t} — a real {!Engine.Executor} instance — on its own
    [Domain.t] and measures wall-clock scaling, the paper's headline
    result (Figs. 7–8).

    Workers exchange path-encoded jobs, transfer requests, and status
    reports through mutex+condition-protected bounded mailboxes.  The
    coordinator (the calling domain) hands status reports, acks and
    crashes to the coordinator core the simulation shares
    ({!Transport}): every job batch in flight is covered by a lease,
    retransmitted until acknowledged and deduplicated by the receiving
    {!Worker}, so the runtime survives the same fault model as the
    simulation — Faultplan-driven domain crashes (crash-stop with
    amnesia, the victim observing an atomic crash flag at quantum poll
    points), mid-run rejoins on a fresh domain, and seeded message
    loss / delay / duplication on the job wire.  Crashes recover
    exactly: the victim's last status report is its durable recovery
    point, orphaned leases are re-seeded on live workers, and handed-
    away nodes are banned, so a faulty run terminates with exactly the
    fault-free path and error totals — the differential gates
    [bench scaling] (fault-free) and [bench faults-parallel] (faulty)
    enforce.  On a faulty plan a heartbeat failure detector declares
    busy workers that stop reporting (1,000 silent ticks suspects, 2,000
    declares), and a watchdog aborts any run that sees no coordinator
    message for 120 s with a state dump rather than hang.

    Balancing is event-driven: a busy worker drains its mailbox after
    every {!Engine.Executor.quantum}, so a transfer request or a crash
    flag is seen within one quantum, and it reports its queue length
    every [status_every] quanta.  The coordinator rebalances after every
    drain round that handled a status report, feeding only workers that
    reported an empty queue, as long as rebalancing replay stays within
    1/20 of the cluster's useful instructions; no timer gates a steal.

    Worker domains are parked when a run ends and reused by
    later runs in the same process, never stopped: the OCaml 5.1.1
    runtime can crash when a domain stops during ephemeron marking.

    The runtime explores exhaustively ({!Driver.Exhaust}); dead slots
    are exempt from the quiescence predicate, so a run whose crashed
    workers never rejoin still terminates. *)

type 'env config = {
  ndomains : int;  (** worker domains (the coordinator runs on the caller) *)
  make_worker : int -> 'env Worker.t;
      (** called {e inside} worker [i]'s domain, so domain-local solver
          state (the solver, its counterexample models and persistent
          instance) is created where it is used; the run then attaches
          the solver to its shared answer store *)
  status_every : int;
      (** quanta between status reports while busy (default 16); the
          worker polls its mailbox after every quantum *)
  faults : Faultplan.t;
      (** crash / rejoin / loss schedule, in coordinator ticks.  The
          plan is validated against [ndomains] before the run starts. *)
  tick_period : float;
      (** seconds between coordinator ticks (the unit of the fault
          schedule, lease timeouts, and heartbeat intervals); the
          coordinator counts them off the wall clock *)
  obs : Obs.Sink.t option;
      (** when set, the runtime profiles itself with wall-clock spans:
          mailbox waits, steal round-trips and (recovery) replays per
          worker domain, quiescence rounds on the coordinator (through
          a buffered lb-attributed view, flushed after all domains
          join); crash/rejoin/lease events are emitted the same way *)
}

val default_config :
  ?obs:Obs.Sink.t ->
  ?faults:Faultplan.t ->
  ndomains:int ->
  make_worker:(int -> 'env Worker.t) ->
  unit ->
  'env config

type result = {
  ndomains : int;
  total_paths : int;
  total_errors : int;
  useful_instrs : int;
  replay_instrs : int;
  broken_replays : int;
  transfers : int;  (** jobs moved between workers (leased batches) *)
  steals : int;  (** transfer requests issued by the balancer *)
  status_reports : int;
  jobs_sent : int;
  jobs_received : int;
  crashes : int;  (** plan victims, heartbeat declarations, and evictions *)
  recovered_jobs : int;  (** orphaned jobs re-seeded from ledger copies *)
  retransmits : int;  (** job batches resent after an ack timeout *)
  recovery_replay_instrs : int;  (** replay cost of reconstructing orphans *)
  coverage_vector : Bytes.t;  (** union of the workers' line bit vectors *)
  final_coverage : float;  (** covered fraction of [coverable_lines] *)
  per_worker_useful : (int * int) list;  (** live incarnations only *)
  solver_stats : Smt.Solver.stats;  (** aggregate over all incarnations *)
  per_worker_solver : (int * Smt.Solver.stats) list;  (** live incarnations *)
  store_locks : Smt.Shard_lock.stats;
      (** contention on the run's shared answer store: every worker's
          solver answers its satisfiability and deterministic-model
          caches from one {!Smt.Solver.Store} per run *)
}

(** Run to exhaustion on [ndomains] worker domains.  [coverable_lines]
    is the denominator of [final_coverage].

    @raise Invalid_argument when [ndomains < 1] or the fault plan fails
      {!Faultplan.validate}.
    @raise Failure when the watchdog fires (workers are crash-stopped
      and joined first, so the exception is clean). *)
val run : coverable_lines:int -> 'env config -> result
