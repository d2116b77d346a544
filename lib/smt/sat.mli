(** A CDCL SAT solver with two-watched-literal propagation, first-UIP
    learning, VSIDS-style branching, phase saving, and Luby restarts.

    Instances are persistent: {!solve_with_assumptions} answers a query
    under assumption literals and leaves the learned clauses, variable
    activities, saved phases and watches in place for the next call,
    so related queries share search effort.  Learnt-clause growth on a
    long-lived instance is bounded by an age-based reduction pass that
    runs between queries.

    Literal encoding: variable [v] (0-based, allocated by {!new_var}) has
    positive literal [2*v] and negative literal [2*v + 1]; [l lxor 1]
    negates a literal. *)

type t

type result = Satisfiable | Unsatisfiable

val create : unit -> t

(** Allocate a new variable and return its index. *)
val new_var : t -> int

(** [lit ~positive v] is the literal for variable [v]. *)
val lit : positive:bool -> int -> int

val var_of_lit : int -> int

(** [lit_sign l] is [true] for positive literals. *)
val lit_sign : int -> bool

(** Add a problem clause.  May be called between queries on a persistent
    instance (any leftover non-root assignment is undone first); an empty
    clause makes the instance unsatisfiable.  The array is handed over:
    it is sorted in place and may become the stored clause, so the caller
    must not reuse it. *)
val add_clause : t -> int array -> unit

val solve : t -> result

(** [solve_with_assumptions s lits] decides satisfiability of the clause
    database under the temporary assumption that every literal in [lits]
    is true.  Assumptions are installed as the first decisions and are
    retracted afterwards; an [Unsatisfiable] answer means "unsat under
    these assumptions" and does {e not} poison the instance (unlike a
    root-level conflict).  Learned clauses, activities and saved phases
    persist across calls.  [solve s] is [solve_with_assumptions s []]. *)
val solve_with_assumptions : t -> int list -> result

(** Relevance restriction for persistent instances.  [begin_marks] opens
    a fresh mark generation and arms the restriction for the next
    {!solve_with_assumptions} call only; {!mark_var} adds one variable to
    the relevant set.  The branching heap holds only marked variables
    from [begin_marks] until the next unmarked solve, which re-queues
    every unassigned variable first, so a marked query's cost follows
    its cone, not the instance.  The armed search never branches on an
    unmarked variable and answers [Satisfiable] as soon as every marked
    variable is assigned without conflict — sound iff the unmarked remainder of
    the instance is always extendable to a full model (true for Tseitin
    gate definitions and activation-guard clauses, the only clauses
    {!Cnf} emits outside a query's cone).  Callers must mark the full
    transitive input cone of every assumed constraint: a marked
    variable's defining gates and inputs must be marked too. *)
val begin_marks : t -> unit

val mark_var : t -> int -> unit

(** [mark_clause s ci] adds clause [ci] (an index into the arena, in
    insertion order) to the current mark generation's relevant set.
    While marks are armed, above-root propagation skips unmarked problem
    clauses wholesale — sound because callers mark every clause of the
    active cone, and any clause outside it contains an unmarked (hence
    never-assigned) variable, so it can never become unit or conflicting.
    Learnt clauses are always relevant. *)
val mark_clause : t -> int -> unit

(** [value s v] is the value of variable [v] in the satisfying assignment
    found by the last solve call ([false] if unassigned). *)
val value : t -> int -> bool

(** Clauses ever pushed into the arena (problem + learnt, including
    tombstoned deleted slots) — a monotone size measure for retirement
    policies. *)
val num_clauses : t -> int

val num_vars : t -> int

(** [clause s ci] is a copy of the literals of arena clause [ci] (in
    insertion order, see {!num_clauses}) as currently stored: empty for
    a deleted learnt slot.  For tests. *)
val clause : t -> int -> int array

(** [false] once a root-level conflict has been derived: the clause
    database itself is contradictory and every further query answers
    [Unsatisfiable]. *)
val is_ok : t -> bool

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learned : int;  (** learnt clauses ever recorded (including units) *)
  deleted : int;  (** learnt clauses removed by DB reduction *)
}

val stats : t -> stats
