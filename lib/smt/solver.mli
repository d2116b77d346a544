(** Query orchestration: simplification, constraint-independence slicing,
    satisfiability cache, and counterexample (model) cache on top of the
    bit blaster and CDCL SAT core — the same solver stack structure
    KLEE/Cloud9 rely on.  The caches and slicing can each be disabled at
    construction for ablation experiments; SAT calls always go to a
    persistent incremental instance.  Every query is answered by exactly
    one tier: [trivial + cache_hits + cex_hits + sat_calls = queries]. *)

type result = Sat of Model.t | Unsat

type stats = {
  mutable queries : int;     (** total satisfiability questions asked *)
  mutable trivial : int;     (** answered by simplification alone *)
  mutable range_hits : int;
      (** always 0: there is no interval tier.  Kept only because the
          end-to-end benchmark harness still reports it. *)
  mutable cache_hits : int;  (** answered by the satisfiability cache *)
  mutable cex_hits : int;    (** answered by probing a cached model *)
  mutable sat_calls : int;   (** full bit-blast + SAT runs *)
}

(** Counters of the incremental SAT path.  [group_hits] counts
    constraints whose clause group was already blasted into the live
    persistent instance — a reused group contributes zero new clauses to
    its query. *)
type inc_stats = {
  mutable assumption_solves : int;
      (** SAT calls answered by an assumption solve on the persistent
          instance (vs. a fresh bit-blast) *)
  mutable group_hits : int;
  mutable group_misses : int;
  mutable retirements : int;
      (** persistent instances discarded — by {!clear_caches} or the
          instance-growth cap *)
}

type t

(** [obs] attaches an observability sink: every answered query bumps a
    per-tier [solver_queries] counter (handles resolved here, once) and
    emits a {!Obs.Event.Solver_query} trace event; it also registers the
    hashcons shard-lock stats provider on the sink (idempotent).
    [prof] additionally enables wall-clock query profiling: every
    answered query closes a [latency_ns{kind=solver_query,tier=...}]
    span chained from the entry point (fused fork queries attribute
    shared simplify/slice work to the first polarity). *)
val create :
  ?use_sat_cache:bool ->
  ?use_cex_cache:bool ->
  ?use_independence:bool ->
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Profile.t ->
  unit ->
  t

val stats : t -> stats

(** Immutable snapshot of the live counters. *)
val copy_stats : t -> stats

(** Live counters of the incremental SAT path (see {!inc_stats}). *)
val inc_stats : t -> inc_stats

(** Immutable snapshot of {!inc_stats}. *)
val copy_inc_stats : t -> inc_stats

(** CDCL counters of the live persistent instance ([None] before the
    first SAT call and right after a retirement). *)
val inc_sat_stats : t -> Sat.stats option

val zero_stats : unit -> stats

(** [accum_stats acc src] adds [src]'s counters into [acc] (for
    aggregating per-worker solvers into a cluster total). *)
val accum_stats : stats -> stats -> unit

(** [diff_stats a b] is [a]'s counters minus those of [b], an earlier
    copy of the same counters (for per-slice deltas). *)
val diff_stats : stats -> stats -> stats

(** Drop all caches {e and} retire the persistent incremental instance;
    models transferred to another worker lose their source's caches and
    must never solve against the source's stale activation groups (paper
    section 6, "Constraint Caches"). *)
val clear_caches : t -> unit

(** Is the conjunction satisfiable?  On [Sat], the model binds only
    symbols of the normalized constraints (unbound ones read as zero).
    With independence on, each symbol-connected component of the
    normalized set is answered (and counted) as its own query through
    the caches, stopping at the first [Unsat] component; the component
    models, restricted to their own symbols, are merged. *)
val check : t -> Expr.t list -> result

(** [branch_feasible t ~pc cond]: is [pc /\ cond] satisfiable?
    [pc] is a normalized path condition (members simplified, no trivial
    truths, e.g. {!State.t}'s [pc]) that is itself satisfiable — true for
    every live execution state; under it, independence slicing seeded by
    [cond] is sound.  Only [cond] is simplified. *)
val branch_feasible : t -> pc:Expr.t list -> Expr.t -> bool

(** [fork_feasible t ~pc cond] answers
    [(branch_feasible cond, branch_feasible (not cond))] in one entry
    point: the condition is simplified once and the independence slice
    is shared between the two polarities.  Each
    polarity still counts as one query in {!stats} (with exactly one tier
    hit), so reconciliation invariants are unchanged. *)
val fork_feasible : t -> pc:Expr.t list -> Expr.t -> bool * bool

(** Like {!check}, but the returned model depends only on the canonical
    constraint set — never on query history — so every worker computes the
    same model for the same path condition.  Required for replay-stable
    concretization (paper section 6).  It shares {!check}'s component
    loop: each symbol-connected component is answered from a memo of
    earlier deterministic answers or solved from scratch in structural
    order, counted as one query in exactly one tier, so a component's
    model is a function of that component alone. *)
val check_deterministic : t -> Expr.t list -> result

(** Refresh the cache-size / hashcons gauges on the attached obs sink (a
    no-op without one).  Also runs automatically every few hundred
    answered queries. *)
val sample_gauges : t -> unit
