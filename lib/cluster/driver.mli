(** Cluster driver: a discrete-event simulation of a Cloud9 deployment.

    The paper measures wall-clock time on an EC2 cluster; a single-machine
    reproduction cannot honestly run 48 workers concurrently, so time here
    is {e virtual}: each simulated worker embeds a real engine exploring
    the real execution tree, retires a per-tick instruction budget, and
    exchanges messages with simulated latency.  Everything the paper
    measures — time to goal, useful instructions, transfer rates, the
    effect of disabling the balancer — is preserved.  One tick nominally
    represents 100 ms.

    The [faults] plan may crash workers (optionally rejoining with a
    fresh engine), drop/duplicate/delay messages, and partition links.
    Job transfers are leased in the {!Ledger} and delivered at least
    once (ack + timeout + bounded retransmit with backoff, receiver-side
    deduplication); status reports are the reliable control plane and
    double as each worker's durable recovery point.  On a crash the
    driver credits the victim's last-reported counters and re-seeds its
    orphaned subtrees on live workers, so a faulty run completes with
    exactly the fault-free path and error totals.  A run in which no
    worker is alive and none is left to join or rejoin stops with
    [reached_goal = false] and the credited totals.  The fault plane is
    the coordinator's ({!Transport}), shared with {!Parallel}. *)

type goal =
  | Exhaust                  (** stop when the global tree is explored *)
  | Coverage_target of float
  | Time_limit               (** run until [max_ticks] *)

type 'env config = {
  nworkers : int;
  make_worker : int -> 'env Worker.t;
  join_tick : int -> int;   (** when worker i joins the cluster *)
  speed : int -> int;       (** instructions per tick for worker i *)
  status_interval : int;    (** ticks between status updates to the LB *)
  latency : int;            (** message latency in ticks *)
  lb_disable_at : int option;  (** Fig. 13's mid-run disable *)
  goal : goal;
  max_ticks : int;
  bucket_ticks : int;       (** statistics bucket size *)
  coverable_lines : int;    (** denominator of global coverage *)
  faults : Faultplan.t;     (** crash / loss / partition schedule *)
  init_frontier : Job.t list option;
      (** campaign resume: seed these checkpointed frontier nodes on the
          first worker instead of the root job *)
  init_bans : Job.t list;   (** checkpointed ban set to re-install *)
}

(** Everything a campaign persists to resume a run and reach the exact
    totals of an uninterrupted one: the unexplored frontier as job path
    encodings (each node exactly once, captured at a drained barrier),
    the cumulative ban set, and the union coverage bit vector. *)
type frontier_export = {
  fx_jobs : Job.t list;
  fx_bans : Job.t list;
  fx_coverage : Bytes.t;
}

type bucket = {
  b_start_tick : int;
  mutable transferred : int;
  mutable candidates : int;  (** averaged over the bucket's ticks *)
  mutable cand_sum : int;
  mutable cand_samples : int;
  mutable useful : int;      (** cumulative useful instructions at bucket end *)
  mutable coverage : float;  (** global coverage fraction at bucket end *)
}

(** One slice of a cluster ({!advance}), or a whole {!run}.  Every
    counter covers this slice only, so the slices of one cluster sum to
    the counters of an uninterrupted run. *)
type result = {
  ticks : int;
  reached_goal : bool;
  total_paths : int;
  total_errors : int;
  useful_instrs : int;
  replay_instrs : int;
  broken_replays : int;
  transfers : int;
  buckets : bucket list;  (** oldest first *)
  per_worker_useful : (int * int) list;
  final_coverage : float;
  crashes : int;  (** crash-plan victims plus lease evictions *)
  recovered_jobs : int;  (** orphaned jobs re-seeded from ledger copies *)
  retransmits : int;  (** job batches resent after an ack timeout *)
  recovery_replay_instrs : int;  (** replay cost of reconstructing orphans *)
  solver_stats : Smt.Solver.stats;
      (** cluster-wide solver aggregate, dead workers included *)
  per_worker_solver : (int * Smt.Solver.stats) list;
      (** per-worker solver counters for workers alive at slice end *)
  export : frontier_export option;
      (** present iff the slice stopped at a drained barrier (budget
          preemption or natural exhaustion); a [max_ticks] bailout
          mid-flight yields [None] *)
}

(** A started cluster: its workers, transport, lease ledger, balancer,
    wire and virtual clock, paused between slices. *)
type 'env t

(** Set up a cluster without running it.  [obs] enables observability:
    the driver advances the sink's virtual clock, samples one timeline
    point per live worker per tick (utilization, frontier depth, solver
    activity; counted from the start of each slice), and traces cluster
    control-plane events (joins, crashes, rejoins, job transfers); the
    ledger and balancer trace through the same sink.  Workers built by
    [make_worker] are expected to carry [Obs.Sink.for_worker obs i] in
    their engine config so engine and solver events are attributed to
    them.

    @raise Invalid_argument when [faults] fails {!Faultplan.validate}. *)
val start : ?obs:Obs.Sink.t -> 'env config -> 'env t

(** Run one slice: tick until the cluster has retired [budget] more
    {e useful} instructions, then stop granting execution budgets, let
    in-flight leases settle, and stop at the drained barrier with
    [result.export] filled.  Replay instructions (restoring a resumed
    frontier) are not charged, so every slice advances exploration and
    chained slices terminate even when the replay bill exceeds the
    budget.  The slice also stops at the goal or after [max_ticks]
    ticks.  The next [advance] continues from where this one stopped,
    so the slices of one cluster reach the totals of {!run}. *)
val advance : 'env t -> budget:int -> result

(** Shed a paused cluster to its live states: every worker drops the
    snapshots no outstanding batch member pins and its solver caches
    ({!Worker.shed}).  Exploration is unchanged; the next slice pays
    for some replay and solving again. *)
val shed : 'env t -> unit

(** [start] followed by one unbounded [advance]. *)
val run : ?obs:Obs.Sink.t -> 'env config -> result

(** A homogeneous cluster with sensible defaults (speed 2000, status every
    20 ticks, latency 2, exhaustive goal, no faults). *)
val default_config :
  ?faults:Faultplan.t ->
  nworkers:int ->
  make_worker:(int -> 'env Worker.t) ->
  coverable_lines:int ->
  unit ->
  'env config
