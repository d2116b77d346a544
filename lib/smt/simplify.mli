(** Canonicalizing rewriter for bit-vector expressions. *)

(** [simplify e] applies constant folding, algebraic identities, and
    commutative-operand normalization bottom-up, preserving the concrete
    semantics of {!Expr.eval} exactly.  The result is memoized on the node
    itself, so each distinct live subterm is rewritten at most once, the
    result is visible to every domain, and the memo dies with the node. *)
val simplify : Expr.t -> Expr.t

(** [lower e] recursively replaces signed division and remainder with an
    unsigned lowering (matching {!Expr.eval_binop} exactly, including the
    division-by-zero cases) so downstream bit blasting only needs unsigned
    circuits. *)
val lower : Expr.t -> Expr.t

(** Rewriter counters: [visits] = un-memoized nodes entered, [rewrites] =
    rule applications, [memo_hits] = calls answered from a node's memo. *)
type rw_stats = { mutable visits : int; mutable rewrites : int; mutable memo_hits : int }

(** Snapshot of the calling domain's counters. *)
val stats : unit -> rw_stats

val reset_stats : unit -> unit

(** [is_normal e] holds when [e] is a fixpoint of {!simplify}, re-derived
    by rewriting the whole term without reading or writing any memo.  A
    reference check for tests: it does not share subterm work, so it is
    exponential in the depth of a shared DAG. *)
val is_normal : Expr.t -> bool
