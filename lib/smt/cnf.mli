(** Bit blasting of bit-vector expressions to CNF over a {!Sat} instance.

    Each expression translates to a vector of SAT literals (least
    significant bit first); translations are memoized per context so shared
    subterms share circuitry.  A context either accumulates hard
    assertions for one satisfiability query ({!assert_expr} + {!solve},
    recording no cone dependencies), or serves as a persistent
    incremental instance: {!activate} blasts
    each constraint once behind an activation literal, and
    {!solve_activated} turns an arbitrary subset of the blasted
    constraints on per query while retaining everything the CDCL core
    learned in earlier queries.  Per-query search is relevance-restricted
    to the transitive cone of the activated constraints (tracked at
    translation time), so query cost scales with the query, not with the
    accumulated instance. *)

type ctx

val create : unit -> ctx

(** Assert that a width-1 expression is true.  Signed division/remainder
    are lowered automatically via {!Simplify.lower}. *)
val assert_expr : ctx -> Expr.t -> unit

(** [activate ctx e] returns the activation literal guarding constraint
    [e] (width 1; lowered automatically), blasting [e] into the instance
    on first sight — the clause group only binds when the constraint is
    queried through {!solve_activated}.  The [bool] is [true] when the
    group was newly translated, [false] on a cross-query reuse hit. *)
val activate : ctx -> Expr.t -> int * bool

val solve : ctx -> Sat.result

(** [recording ctx f] runs [f] with cone recording on, as inside
    {!activate}: every node [f] translates gets a dependency record.
    A one-shot context ({!assert_expr} + {!solve}) records none; this
    lets tests check that recording leaves the emitted instance
    unchanged. *)
val recording : ctx -> (unit -> 'a) -> 'a

(** Decide the conjunction of previously {!activate}d constraints:
    assumes their activation literals and restricts CDCL branching to the
    union of their translation cones.  Learned clauses, activities and
    phases persist to the next call; see {!Sat.solve_with_assumptions}.
    Raises [Invalid_argument] if a constraint was never activated. *)
val solve_activated : ctx -> Expr.t list -> Sat.result

(** Monotone clause count of the underlying instance (for retirement
    policies bounding persistent-instance growth). *)
val num_clauses : ctx -> int

(** Variables allocated in the underlying instance. *)
val num_vars : ctx -> int

(** Number of activated constraint groups. *)
val num_groups : ctx -> int

(** Counters of the underlying {!Sat} instance. *)
val sat_stats : ctx -> Sat.stats

(** [false] when the instance has derived a root-level contradiction (a
    bug for purely activation-guarded use, where the hard clause set is
    always satisfiable). *)
val is_ok : ctx -> bool

(** Read back the value of symbol [id] from the satisfying assignment of
    the last {!solve}; [None] if the symbol never appeared. *)
val sym_value : ctx -> int -> int64 option

(** Ids of all symbols mentioned in asserted constraints. *)
val sym_ids : ctx -> int list
