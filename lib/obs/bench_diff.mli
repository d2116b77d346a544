(** Bench-history regression checking: structural comparison of two
    BENCH_*.json artifacts for [cloud9 report --diff].

    Differences fall into [regressions] (an [ok] gate flipped
    true -> false, a deterministic metric — path / error / tenant
    counts — moved at all, another numeric moved beyond a loose
    tolerance, or a value changed JSON type) and [notes] (keys or rows
    on one side only, string changes, timing keys, the scheduling-
    dependent parallel counters [transfers], [steals] and
    [recovery_replay_instrs], and all numeric drift
    between artifacts of different "quick" variants, which are only
    comparable on their gates). *)

type outcome = { regressions : string list; notes : string list }

(** [strict] forces full numeric comparison; defaults to true iff the
    two documents carry the same "quick" flag (or neither does). *)
val compare : ?strict:bool -> Json.t -> Json.t -> outcome

(** Human-readable listing, one line per finding plus a summary line. *)
val render : outcome -> string

(** True iff no regressions. *)
val ok : outcome -> bool
