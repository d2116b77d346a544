(** Bit-vector expression terms, hash-consed.

    All values are fixed-width bit vectors with [1 <= width <= 64], stored
    in an [int64] with bits above the width cleared.  Boolean expressions
    are width-1 bit vectors ([0] = false, [1] = true).  The constructors
    below are smart: they perform constant folding and cheap local
    rewrites.  Deeper canonicalization lives in {!Simplify}.

    Every term is interned in a global weak hashcons table: structurally
    equal terms are physically equal and each carries a unique [id].
    The table is sharded by node hash with one mutex per shard, and the
    id/symbol counters are atomic, so terms may be built and shared
    freely across domains.
    Consequently {!equal} is physical identity, {!compare} compares ids,
    {!width} is a field read, and {!sym_set} and {!Simplify.simplify} are
    memoized per node.  Terms
    can only be built through the smart constructors ([t] is a private
    record), which is what keeps the interning invariant. *)

(** Integer sets, used for symbol-support sets. *)
module Iset : Set.S with type elt = int

type unop =
  | Not  (** bitwise complement *)
  | Neg  (** two's complement negation *)

type binop =
  | Add
  | Sub
  | Mul
  | Udiv  (** unsigned division; [x udiv 0 = all-ones] (SMT-LIB) *)
  | Urem  (** unsigned remainder; [x urem 0 = x] *)
  | Sdiv  (** signed division, truncating; [x sdiv 0 = all-ones] *)
  | Srem  (** signed remainder (sign of dividend); [x srem 0 = x] *)
  | And
  | Or
  | Xor
  | Shl   (** shift amounts [>= width] yield 0 *)
  | Lshr
  | Ashr
  | Ult   (** comparisons produce width-1 results *)
  | Ule
  | Slt
  | Sle
  | Eq
  | Concat  (** [concat a b] puts [a] in the high bits *)

(** A term: the unique hashcons [id], the structural [node], the cached
    bit [width], and two lazily filled memos, its symbol-support set and
    its simplified form.  Pattern-match
    via the [node] field, e.g.
    [match e.node with Binop (Eq, a, b) -> ...]. *)
type t = private {
  id : int;  (** unique per live structurally-distinct term *)
  node : node;
  width : int;
  syms_memo : Iset.t option Atomic.t;  (** internal: use {!sym_set} *)
  simp_memo : simp Atomic.t;  (** internal: use {!Simplify.simplify} *)
}

(** What {!Simplify.simplify} knows of a term: nothing yet, that the term
    is its own simplified form, or its simplified form. *)
and simp = Unknown | Normal | Rewrites_to of t

and node =
  | Const of { width : int; value : int64 }
  | Sym of { id : int; name : string; width : int }
  | Unop of unop * t
  | Binop of binop * t * t
  | Ite of t * t * t
  | Extract of { e : t; off : int; len : int }
  | Zext of t * int
  | Sext of t * int

(** Raised when operand widths are inconsistent or out of range. *)
exception Width_error of string

(** [mask w] is a bit mask of the low [w] bits. *)
val mask : int -> int64

(** [truncate w v] clears the bits of [v] above width [w]. *)
val truncate : int -> int64 -> int64

(** [to_signed w v] sign-extends the low [w] bits of [v] to an int64. *)
val to_signed : int -> int64 -> int64

(** Unsigned comparison of two int64 values. *)
val ucompare : int64 -> int64 -> int

(** Bit width of an expression — O(1), cached at interning time. *)
val width : t -> int

(** The term's unique hashcons id — stable for the term's lifetime. *)
val id : t -> int

(** [const ~width v] builds a constant, truncating [v] to [width] bits. *)
val const : width:int -> int64 -> t

val of_bool : bool -> t
val true_ : t
val false_ : t
val of_int : width:int -> int -> t

(** Allocate a fresh symbolic variable with a globally unique id. *)
val fresh_sym : ?name:string -> int -> t

(** Build a symbol with a caller-chosen id; used by deterministic replay so
    that a replayed path names the same symbols as the original run. *)
val sym_with_id : id:int -> name:string -> int -> t

val is_const : t -> bool
val const_value : t -> int64 option
val is_true : t -> bool
val is_false : t -> bool

(** Concrete semantics of each operator, used by both the smart
    constructors and {!eval}. *)
val eval_unop : unop -> int -> int64 -> int64

val eval_binop : binop -> int -> int64 -> int64 -> int64

val unop : unop -> t -> t
val binop : binop -> t -> t -> t
val ite : t -> t -> t -> t

(** [extract e ~off ~len] selects bits [off, off+len) of [e] (bit 0 is the
    least significant). *)
val extract : t -> off:int -> len:int -> t

val zext : t -> int -> t
val sext : t -> int -> t

val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val eq : t -> t -> t
val ne : t -> t -> t
val ult : t -> t -> t
val ule : t -> t -> t
val ugt : t -> t -> t
val uge : t -> t -> t
val slt : t -> t -> t
val sle : t -> t -> t
val sgt : t -> t -> t
val sge : t -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val concat : t -> t -> t

(** Physical identity; equivalent to structural equality on interned
    terms. O(1). *)
val equal : t -> t -> bool

(** Total order by hashcons id.  Fast and stable within a process, but
    {e not} stable across processes or weak-table evictions — use
    {!compare_structural} when the order itself must be reproducible. *)
val compare : t -> t -> int

(** The term's id; suitable for [Hashtbl.hash]-style use. *)
val hash : t -> int

(** Structural total order depending only on term shape (and symbol ids),
    never on interning order.  O(size), with a physical-equality fast
    path.  Used to order constraint sets deterministically across
    workers. *)
val compare_structural : t -> t -> int

(** Ids of the symbolic variables occurring in the expression (sorted). *)
val syms : t -> int list

(** Symbol-support set, memoized per node: amortized O(1). *)
val sym_set : t -> Iset.t

(** [substitute pairs e] replaces every occurrence of each [fst] subterm
    with its [snd], bottom-up.  Sound when each pair is an equality
    implied by the context (e.g. the path condition).  Each distinct
    subterm is rebuilt once per call, so shared DAGs cost O(nodes). *)
val substitute : (t * t) list -> t -> t

(** Node count, used by caches and cost heuristics. *)
val size : t -> int

val unop_name : unop -> string
val binop_name : binop -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** [eval lookup e] evaluates [e] under the assignment [lookup]; symbols
    for which [lookup] returns [None] take the value [default]
    (default [0L]).  The result is truncated to [width e] bits. *)
val eval : ?default:int64 -> (int -> int64 option) -> t -> int64

(** Hashcons table statistics: live entry count (summed across shards),
    the largest weak-table bucket of any shard (its allocated slots),
    intern hits/misses since start, and the next id to be assigned. *)
type hc_stats = { table_size : int; max_bucket : int; hits : int; misses : int; next_id : int }

val hashcons_stats : unit -> hc_stats

(** The hashcons shard locks' contention probe (see {!Shard_lock}). *)
val lock_stats : unit -> Shard_lock.stats

(** Zero all shard-lock counters (call before a profiled run; the
    probe's state is global and survives across runs in one process). *)
val reset_lock_stats : unit -> unit
