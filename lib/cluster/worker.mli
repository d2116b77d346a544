(** A Cloud9 worker: an independent symbolic execution engine exploring
    one region of the global execution tree (paper section 3.2).

    The worker's frontier holds candidate nodes — materialized (program
    state in memory) or virtual (path-only shells from job transfers).
    Selecting a virtual candidate triggers lazy replay from the deepest
    cached ancestor; off-path siblings revealed by the replay become
    fence nodes (Fig. 3's node life cycle). *)

module Trie = Engine.Trie

(** A state cached at a fork point, as a replay start. *)
type 'env snap

(** A received batch whose members' replays pin the snapshots they pass. *)
type 'env batch

(** The worker's tag on a virtual candidate. *)
type 'env job = {
  recovery : bool;  (** re-seeded by crash recovery (cost accounting) *)
  batch : 'env batch option;
}

type 'env mode =
  | Exploring
  | Replaying of {
      target : Engine.Path.t;
      remaining : Engine.Path.choice list;
      rstate : 'env Engine.State.t;
      job : 'env job;
    }

type 'env t = {
  id : int;
  cfg : 'env Engine.Executor.config;
  make_root : unit -> 'env Engine.State.t;
  frontier : ('env, 'env job) Engine.Searcher.Core.t;
      (** the candidates, selected by the interleaved default *)
  mutable fences : int;
  banned : unit Trie.t;
      (** exact node paths owned by another worker after a crash
          recovery; fork products matching one are dropped (and the
          entry consumed) *)
  collect_tests : int;
  snapshots : 'env snap Trie.t;
  snap_queue : 'env snap Queue.t;  (** FIFO eviction of unpinned snapshots *)
  snap_limit : int;
  mutable batch_fifo : Engine.Path.t list;
      (** received batch members not yet selected, in transfer
          (tree-adjacent) order — drained before the exploration
          strategy so each member replays from its neighbour's freshly
          pinned chain *)
  mutable mode : 'env mode;
  mutable paths_completed : int;
  mutable errors : int;
  mutable pruned : int;
  mutable tests : Engine.Testcase.t list;
  mutable ntests : int;  (** [List.length tests], kept so the cap check is O(1) *)
  mutable broken_replays : int;
  mutable replays_done : int;
  mutable jobs_sent : int;
  mutable jobs_received : int;
  mutable banned_drops : int;
  mutable recovery_replay_instrs : int;
      (** replay instructions spent reconstructing recovery jobs *)
  leases : (int, unit) Hashtbl.t;  (** lease ids imported (dedup) *)
  mutable imported_leases : int list;
      (** the same ids, newest first: the cumulative ack a status report
          piggybacks ({!Transport.report}'s [received]) *)
  prof : Obs.Profile.t option;
  mutable replay_t0 : int;
      (** wall-clock start of the replay in flight (profiling only) *)
}

(** A selected state runs for one {!Engine.Executor.step} quantum, as
    does each replay step; a replay quantum stops at the first choice,
    so it consumes at most one.  [snap_limit] bounds the replay snapshot
    cache (0 disables it, forcing replay from the root, except for the
    snapshots a batch pins); [prof] records each from-path replay as a
    wall-clock [job_replay] span (snapshot-exact materializations are
    skipped — there is no replay to time). *)
val create :
  ?collect_tests:int ->
  ?snap_limit:int ->
  ?prof:Obs.Profile.t ->
  id:int ->
  cfg:'env Engine.Executor.config ->
  make_root:(unit -> 'env Engine.State.t) ->
  seed:int ->
  unit ->
  'env t

(** Give the worker the whole execution tree (the first worker's seed
    job). *)
val seed_root : 'env t -> unit

(** Candidate-node count — what the worker reports to the balancer. *)
val queue_length : 'env t -> int

val is_idle : 'env t -> bool

(** Run up to [budget] instructions; returns the count actually executed
    (less when the worker runs out of work). *)
val execute : 'env t -> budget:int -> int

(** Run one state for one full {!Engine.Executor.quantum} (or one replay
    quantum), materializing a selected candidate on the way; returns the
    instructions retired, 0 only when the worker is idle.  Unlike
    [execute ~budget:quantum], a quantum is never cut short to fit a
    budget, so a caller polling between quanta pays no extra selections. *)
val run_quantum : 'env t -> int

(** Select the candidate the worker runs next — pending batch members
    first, then the interleaved search — and check it out as a quantum
    would: a virtual pick leaves the frontier, and a live one stays
    checked out until it is written back by adding the same state to
    [frontier] ({!Engine.Searcher.Core.add}) or retired by the next
    change to the frontier.  For tests. *)
val select : 'env t -> ('env, 'env job) Engine.Searcher.Core.candidate option

(** Package up to [count] candidates for another worker; each becomes a
    fence node locally.  Virtual candidates are forwarded first; within
    each class the batch is a lexicographically contiguous window
    anchored on the deepest node (victim-side eager splitting), so the
    offered nodes share the longest possible prefix. *)
val transfer_out : 'env t -> count:int -> Job.t list

(** Drop what a paused worker can rebuild — the snapshots no
    outstanding batch member pins, and the solver caches — keeping its
    frontier's live states. *)
val shed : 'env t -> unit

(** Import transferred jobs as virtual candidates.  [recovery] tags
    re-seeded orphans of a crashed worker for cost accounting. *)
val receive_jobs : ?recovery:bool -> 'env t -> Job.t list -> unit

(** Import a factored batch (prefix handoff): members enter the frontier
    as full root paths, and the shared prefix is pinned in the snapshot
    cache while any member is outstanding, so after the first member's
    replay the rest replay suffix-only. *)
val receive_batch : ?recovery:bool -> 'env t -> Job.batch -> unit

(** [true] the first time this worker sees lease [lease]: import the
    batch then; a retransmitted or duplicated copy is only re-acked. *)
val accept_lease : 'env t -> lease:int -> bool

(** Install node paths owned by another worker: fork products matching
    one exactly are dropped instead of entering the frontier. *)
val ban_paths : 'env t -> Engine.Path.t list -> unit

val frontier_paths : 'env t -> Engine.Path.t list

(** The worker's recovery point as reported to the load balancer: all
    candidate paths plus the target of an in-progress replay. *)
val digest_paths : 'env t -> Engine.Path.t list

(** Fence nodes created: candidates given away, and off-path siblings
    met while replaying. *)
val fence_count : 'env t -> int

(** [(paths_completed, errors, useful_instrs, replay_instrs)]. *)
val stats : 'env t -> int * int * int * int
