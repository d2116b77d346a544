(** Shard choice and lock-contention probe shared by the process-wide
    sharded tables: the hashcons table ({!Expr}) and the solvers' answer
    store ({!Solver.Store}). *)

(** Shards of a fully sharded table ([1 lsl bits]). *)
val count : int

(** The shard of a hash in [0, count): the top bits of a Fibonacci mix
    of the hash, so it does not correlate with the low bits a
    [Hashtbl]/[Weak] table picks its bucket from. *)
val of_hash : int -> int

(** Per-table contention probe.  An acquisition through {!acquire}
    try-locks first and counts uncontended vs contended acquisitions;
    when timing is on ({!set_timing}), contended acquisitions are also
    timed into [lk_wait_counts] — buckets aligned with
    [Obs.Metrics.latency_ns_buckets] plus a final +inf bucket — and
    [lk_wait_sum_ns]. *)
type probe

val probe : nshards:int -> probe

(** [acquire p i lock] locks [lock], the mutex of shard [i], counting
    the acquisition in [p]. *)
val acquire : probe -> int -> Mutex.t -> unit

(** [lk_top_shards] lists up to the 8 most contended shard indices with
    their contended-acquisition counts.  Per-shard counts are read
    unsynchronized (statistics, not invariants). *)
type stats = {
  lk_uncontended : int;
  lk_contended : int;
  lk_wait_counts : int array;
  lk_wait_sum_ns : int;
  lk_top_shards : (int * int) list;
}

val stats : probe -> stats

(** Zero a probe's counters. *)
val reset : probe -> unit

(** Enable/disable timing of contended waits, for every probe.  Off by
    default: an uncontended acquisition always pays only the try-lock
    and one atomic increment. *)
val set_timing : bool -> unit
