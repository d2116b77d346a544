(** An execution state: one node's worth of program state in the symbolic
    execution tree.

    Everything is persistent (a frame's register array is never written
    once it is in a state), so cloning at a fork is O(1) and states never
    alias data either one mutates.  A state spans multiple processes (address
    spaces live in {!Cvm.Memory}) and threads under a cooperative
    scheduler (paper section 4.2).  The opaque ['env] slot carries the
    environment model's own state (e.g. the POSIX model's descriptor
    tables and stream buffers) and forks with the rest. *)

module Imap : Map.S with type key = int

type frame = {
  func : Cvm.Program.func;  (** operand-resolved: see {!Cvm.Program.resolved} *)
  regs : Smt.Expr.t array;
      (** [func.nregs] slots; never written once the frame is in a state,
          so a writer copies first *)
  frame_base : int;  (** address of the frame object; 0 when frameless *)
  ret_reg : int option;
  ret_block : int;
  ret_index : int;
}

type tstatus = Runnable | Sleeping of int (** wait-list id *) | Exited

type thread = {
  tid : int;
  pid : int;
  frames : frame list;  (** top of stack first *)
  block : int;
  index : int;
  status : tstatus;
}

type sched_policy =
  | Round_robin          (** deterministic *)
  | Fork_all             (** fork per runnable thread at yield points *)
  | Context_bound of int (** fork until the preemption budget is spent *)

type 'env t = {
  program : Cvm.Program.t;
  globals : (string * int) list;
  mem : Cvm.Memory.t;
  threads : thread Imap.t;
  cur : int;
  next_tid : int;
  next_pid : int;
  next_wlist : int;
  next_sym : int;
  pc : Smt.Expr.t list;
      (** path condition, newest first and normalized (members
          simplified, trivial truths dropped), maintained incrementally
          by {!add_constraint}; feeds {!Smt.Solver.fork_feasible} and
          {!Smt.Solver.branch_feasible} *)
  boxes : Smt.Range.boxes option;
      (** interval facts of [pc], maintained by the same increments;
          [None] means "recompute on demand" *)
  subst : (Smt.Expr.t * Smt.Expr.t) list;
      (** pc-implied equalities applied when reading operands *)
  subst_syms : Smt.Expr.Iset.t;  (** symbols of the [subst] left-hand sides *)
  path : Path.choice list;  (** choices from the root, newest first *)
  sym_inputs : (string * int list) list;
      (** input name -> byte symbol ids, oldest input first *)
  steps : int;
  since_sched : int;  (** instructions since the last scheduling point *)
  preemptions : int;
  heap_limit : int option;
  sched : sched_policy;
  depth : int;
  last_new_cover : int;
  exit_code : int64;
  env : 'env;
}

(** Root-first path of this state (its node address in the tree). *)
val path : 'env t -> Path.t

(** @raise Invalid_argument on unknown thread ids. *)
val thread_exn : 'env t -> int -> thread

val current : 'env t -> thread
val current_pid : 'env t -> int
val update_thread : 'env t -> thread -> 'env t

(** Runnable thread ids in increasing order. *)
val runnable_tids : 'env t -> int list

(** Threads not yet exited. *)
val live_threads : 'env t -> int

(** Wake every thread sleeping on the given wait list. *)
val wake_all : 'env t -> int -> 'env t

val sleeping_on : 'env t -> int -> int list
val top_frame : thread -> frame

(** Write a register of the current thread's top frame (copying its
    register array). *)
val set_reg : 'env t -> int -> Smt.Expr.t -> 'env t

(** Move to the next instruction of the current block. *)
val advance : 'env t -> 'env t

(** Jump to the start of a block. *)
val goto : 'env t -> int -> 'env t

val global_addr : 'env t -> string -> int

(** A function of the state's operand-resolved program. *)
val func : 'env t -> string -> Cvm.Program.func option

(** @raise Invalid_argument on unknown functions. *)
val func_exn : 'env t -> string -> Cvm.Program.func

(** Rewrite an expression with the pc-implied equality substitution;
    terms sharing no symbol with [subst_syms] come back unchanged. *)
val apply_subst : 'env t -> Smt.Expr.t -> Smt.Expr.t

(** Create [count] fresh width-8 symbols with deterministic per-state ids
    (replay creates identical symbols) and record them as a named input. *)
val fresh_input : 'env t -> name:string -> count:int -> 'env t * Smt.Expr.t list

(** A fresh symbol not recorded as a test input. *)
val fresh_sym : 'env t -> name:string -> width:int -> 'env t * Smt.Expr.t

(** Conjoin a constraint onto the path condition, simplified after the
    substitution (a trivially-true one is dropped); equalities with
    constants additionally feed the substitution. *)
val add_constraint : 'env t -> Smt.Expr.t -> 'env t

(** Append a fork choice to the path. *)
val push_choice : 'env t -> Path.choice -> 'env t

(** A frame for an operand-resolved function (see {!func}); registers
    beyond the arguments read as 64-bit zero. *)
val make_frame :
  Cvm.Program.func ->
  frame_base:int ->
  args:Smt.Expr.t list ->
  ret_reg:int option ->
  ret_block:int ->
  ret_index:int ->
  frame

(** Initial state: globals allocated in process 0, one thread at the
    entry function with the given argument expressions.  The first call
    for a program resolves its operands ({!Cvm.Program.resolved}). *)
val init : Cvm.Program.t -> env:'env -> args:Smt.Expr.t list -> 'env t

val map_env : 'env t -> ('env -> 'env) -> 'env t
