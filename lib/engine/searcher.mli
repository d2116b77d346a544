(** Exploration strategies: which candidate state to execute next.

    Every strategy is a pick policy over one slot table ({!Core}),
    indexed by path (a state's path is its unique key).  [select] checks
    the chosen state out: an [add] of a state whose newest-first
    [State.path] field is physically the checked-out one (the step did
    not fork) writes it back into its slot; any other [add], [select] or
    [remove] first retires the checkout. *)

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

(** The slot table behind every strategy, for a client that also queues
    path-only candidates (the cluster worker's frontier).  A virtual
    candidate sits in the same path index, so random-path descends over
    it, but it weighs 0: a coverage-optimized pick never lands on one
    while a live candidate exists, and an all-virtual population gets a
    random-path pick instead.  Every candidate's root-first path is kept,
    so {!iter} builds none. *)
module Core : sig
  type ('env, 'tag) t

  (** A live state, or a virtual node: its root-first path and the
      client's tag. *)
  type ('env, 'tag) candidate = Live of 'env State.t | Virtual of Path.t * 'tag

  (** The policy {!of_name} names, over a core that takes virtual
      candidates. *)
  val of_name : rng:Random.State.t -> string -> ('env, 'tag) t

  (** Queue a live state, with the write-back rule above. *)
  val add : ('env, 'tag) t -> 'env State.t -> unit

  (** Queue a virtual candidate, replacing any candidate at its path. *)
  val add_virtual : ('env, 'tag) t -> Path.t -> 'tag -> unit

  (** Checks a live pick out; a virtual pick leaves the core. *)
  val select : ('env, 'tag) t -> ('env, 'tag) candidate option

  (** Remove and return the candidate at a path. *)
  val take : ('env, 'tag) t -> Path.t -> ('env, 'tag) candidate option

  val find : ('env, 'tag) t -> Path.t -> ('env, 'tag) candidate option

  (** Every queued candidate with its root-first path, the checked-out
      one excluded. *)
  val iter : (Path.t -> ('env, 'tag) candidate -> unit) -> ('env, 'tag) t -> unit

  val size : ('env, 'tag) t -> int
end
