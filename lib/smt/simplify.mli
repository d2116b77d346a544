(** Canonicalizing rewriter for bit-vector expressions. *)

(** [simplify e] applies constant folding, algebraic identities, and
    commutative-operand normalization bottom-up, preserving the concrete
    semantics of {!Expr.eval} exactly.  Results are memoized per domain
    by hashcons id, so each distinct subterm is
    rewritten at most once per domain — the memo is domain-local storage,
    keeping the solver's hottest lookup lock-free under parallelism. *)
val simplify : Expr.t -> Expr.t

(** [lower e] recursively replaces signed division and remainder with an
    unsigned lowering (matching {!Expr.eval_binop} exactly, including the
    division-by-zero cases) so downstream bit blasting only needs unsigned
    circuits. *)
val lower : Expr.t -> Expr.t

(** Rewriter counters: [visits] = un-memoized nodes entered, [rewrites] =
    rule applications, [memo_hits] = calls answered from the memo. *)
type rw_stats = { mutable visits : int; mutable rewrites : int; mutable memo_hits : int }

(** Snapshot of the calling domain's counters. *)
val stats : unit -> rw_stats

val reset_stats : unit -> unit

(** Number of entries memoized in the calling domain. *)
val memo_size : unit -> int

(** Drop the calling domain's memoized results (e.g. alongside
    {!Solver.clear_caches}). *)
val clear_memo : unit -> unit
