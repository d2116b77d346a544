(** Declarative fault schedules for the cluster simulation: worker
    crashes (with optional rejoin), seeded message drop / duplication /
    delay, and link partitions between worker pairs.  The coordinator
    ({!Transport}) owns the plan's {!runtime} and consults it for both
    cluster backends; a fixed seed makes a faulty run exactly
    reproducible.

    The fault model is crash-stop with amnesia: a crashed worker loses
    its frontier, snapshot cache, and every statistic not yet reported to
    the load balancer; rejoining creates a brand-new worker in the same
    slot (see DESIGN.md, "Failure semantics"). *)

type crash = {
  victim : int;               (** worker id *)
  at_tick : int;
  rejoin_after : int option;  (** [None] = permanent departure *)
}

type partition = {
  p_a : int;
  p_b : int;
  p_from : int;  (** first tick the link is down *)
  p_until : int; (** first tick the link is up again *)
}

type t = {
  crashes : crash list;
  drop_prob : float;      (** P(message lost in transit) *)
  dup_prob : float;       (** P(message delivered twice) *)
  delay_prob : float;     (** P(extra delivery delay) *)
  max_extra_delay : int;  (** extra delay drawn from [1, max] ticks *)
  partitions : partition list;
  seed : int;
}

(** The perfect world: no crashes, lossless links. *)
val none : t

val create :
  ?crashes:crash list ->
  ?drop_prob:float ->
  ?dup_prob:float ->
  ?delay_prob:float ->
  ?max_extra_delay:int ->
  ?partitions:partition list ->
  ?seed:int ->
  unit ->
  t

val crash : ?rejoin_after:int -> int -> at_tick:int -> crash

val is_faultless : t -> bool

(** Check the plan against a cluster of [nworkers] slots: every crash and
    partition must reference a worker id in [0, nworkers), crash ticks
    must be non-negative, and rejoin delays strictly positive (a rejoin
    at or before its own crash would silently never fire).
    {!Transport.create} refuses an invalid plan with this message. *)
val validate : t -> nworkers:int -> (unit, string) result

(** The last tick at which the plan crashes or rejoins a worker (0 for
    none).  After it, a cluster with no live worker can never revive. *)
val horizon : t -> int

(** Fate of one message entering the network. *)
type fate =
  | Deliver of int    (** extra delay in ticks (0 = on time) *)
  | Drop
  | Duplicate of int  (** delivered twice; the copy trails by this delay *)

(** Per-run instance holding the seeded random stream and the indexed
    crash/rejoin schedule. *)
type runtime

val make : t -> runtime

(** Workers crashing at this tick. *)
val crashes_at : runtime -> tick:int -> int list

(** Workers whose rejoin delay elapses at this tick. *)
val rejoins_at : runtime -> tick:int -> int list

(** The load balancer's endpoint id in [fate]'s [src]/[dst] ([-1]);
    partitions only ever cut worker-to-worker links. *)
val lb : int

(** Decide the fate of one message sent at [tick] from [src] to [dst].
    Consulted once per send, in simulation order, so a fixed seed fixes
    the whole run. *)
val fate : runtime -> tick:int -> src:int -> dst:int -> fate
