(** The wall-clock profiler for the true multicore runtime: cheap span
    probes over a (usually buffered) {!Sink}, recorded into shared-bucket
    [latency_ns] histograms and — for the coarse kinds — staged as
    real-nanosecond spans that export as Chrome "X" events.

    Components hold a [Profile.t option]: {!start} on [None] returns 0
    without reading the clock and {!record} on [None] does nothing, so
    disabled profiling costs one branch per probe site. *)

type kind =
  | Mailbox_wait  (** worker domain blocked on its empty inbox *)
  | Steal_rtt  (** coordinator issued Steal → stolen Jobs arrived at thief *)
  | Job_replay  (** replaying a transferred job from its path encoding *)
  | Recovery_replay
      (** replaying an orphaned job recovered from the ledger after a
          crash — same mechanics as [Job_replay], reported separately so
          recovery cost is visible in the profile *)
  | Quiesce_round  (** one coordinator loop: status drain + rebalance *)
  | Solver_query of Event.solver_tier
      (** one answered solver query, by answer tier (histogram only — no
          span, queries are too frequent for the ring) *)

type t

(** Resolves one histogram handle per kind on [sink]'s registry
    (find-or-create: profiles sharing a registry share handles). *)
val create : Sink.t -> t

(** Wall-clock start timestamp for a span, 0 (no clock read) if [None]. *)
val start : t option -> int

(** Close a span opened at [start_ns]: observe its duration (clamped to
    >= 0) in the kind's histogram and, for non-solver kinds, stage a
    {!Sink.span}.  Returns the stop timestamp so back-to-back spans can
    chain without a second clock read; returns 0 if [None]. *)
val record : t option -> kind -> start_ns:int -> int

