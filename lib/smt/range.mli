(** Unsigned interval (range) analysis over bit-vector expressions: the
    cheap fast path in front of the SAT solver.  All transfer functions
    are conservative — the concrete value always lies inside the computed
    interval. *)

type t = { lo : int64; hi : int64; width : int }

val top : int -> t
val of_const : width:int -> int64 -> t
val make : width:int -> int64 -> int64 -> t
val is_singleton : t -> bool
val contains : t -> int64 -> bool
val join : t -> t -> t

(** Intersection; [None] when empty. *)
val meet : t -> t -> t option

(** Abstract evaluation under symbol intervals ([None] = unconstrained). *)
val eval : (int -> t option) -> Expr.t -> t

module Imap : Map.S with type key = int

(** Symbol boxes learned from a conjunction of constraints.  Learning is a
    per-symbol interval meet — commutative and associative — so boxes can
    be maintained incrementally, one constraint at a time, with the same
    result as recomputing from the whole path condition. *)
type boxes = t Imap.t

val empty_boxes : boxes

(** Fold one (simplified) constraint into the boxes; [None] when the
    learned facts alone are contradictory (the conjunction is UNSAT). *)
val learn_boxes : boxes -> Expr.t -> boxes option

(** Symbol intervals implied by a (simplified) path condition; [None] when
    the learned facts alone are contradictory. *)
val boxes_of_pc : Expr.t list -> boxes option

val lookup_of_boxes : boxes -> int -> t option

(** Fast verdict for "is [pc /\ cond] satisfiable?" given that [pc] is
    satisfiable, over [pc]'s boxes (see {!boxes_of_pc}) — one set of
    boxes answers both polarities of a fork and is carried incrementally
    in the execution state; [None] means undecided (fall through to
    SAT). *)
val quick_feasible : boxes -> Expr.t -> bool option
