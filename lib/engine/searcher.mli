(** Exploration strategies: which candidate state to execute next.

    Every strategy is a pick policy over one slot table, indexed by path
    (a state's path is its unique key).  [select] checks the chosen state
    out: an [add] of a state whose newest-first [State.path] field is
    physically the checked-out one (the step did not fork) writes it back
    into its slot; any other [add], [select] or [remove] first retires
    the checkout. *)

type 'env t = {
  add : 'env State.t -> unit;
  select : unit -> 'env State.t option;  (** checks the selected state out *)
  remove : Path.t -> unit;
  size : unit -> int;  (** queued states, the checked-out one excluded *)
}

val dfs : unit -> 'env t
val bfs : unit -> 'env t

(** KLEE's random-path strategy: walk the execution tree from the root,
    picking a uniformly random child at each node — deep subtrees do not
    dominate selection. *)
val random_path : rng:Random.State.t -> unit -> 'env t

(** Weighted random selection favoring states that recently covered new
    code (the coverage-optimized strategy of the paper's evaluation);
    O(log n) per pick. *)
val coverage_optimized : rng:Random.State.t -> unit -> 'env t

(** The paper's evaluation default: random-path and coverage-optimized
    picks alternate over one population. *)
val default : rng:Random.State.t -> unit -> 'env t

(** The strategy names {!of_name} accepts, in documentation order. *)
val names : string list

(** By name: "dfs", "bfs", "random-path", "cov-opt",
    "interleaved"/"default".
    @raise Invalid_argument on unknown names (the message lists the
    valid ones). *)
val of_name : rng:Random.State.t -> string -> 'env t
