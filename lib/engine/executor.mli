(** The symbolic executor: quantum stepping of execution states, forking
    at symbolic branches, scheduling decisions, and forking system calls
    — the KLEE-analogue at the heart of each worker.

    {!step} runs a state for one quantum, the batch of instructions a
    searcher's pick buys (paper section 7).  Seen from outside it is
    purely functional over {!State.t}: it returns the successor states
    (one, or several on forks) plus terminated states.  Every fork
    appends a {!Path.choice} to each successor's path, so a state's path
    uniquely addresses its execution-tree node and serves as the
    job-transfer encoding.  Inside the quantum, straight-line
    instructions update a private cursor that is committed to a
    persistent state once, at the quantum's end or before an instruction
    that needs one; nothing mutable escapes. *)

(** Engine-primitive system call numbers (paper Table 1 plus the
    symbolic-test primitives of Table 2 the engine itself implements).
    Numbers at or above [model_base] dispatch to the environment model. *)
module Sysno : sig
  val make_shared : int
  val thread_create : int
  val thread_terminate : int
  val process_fork : int
  val process_terminate : int
  val get_context : int
  val thread_preempt : int
  val thread_sleep : int
  val thread_notify : int
  val get_wlist : int
  val make_symbolic : int
  val set_max_heap : int
  val set_scheduler : int
  val assume : int
  val model_base : int
end

type stats = {
  mutable useful_instrs : int;  (** instructions retired while exploring *)
  mutable replay_instrs : int;  (** instructions retired while replaying jobs *)
  mutable forks : int;
  mutable terminated_paths : int;
  mutable covered_lines : int;
}

val make_stats : unit -> stats

(** Outcome of an environment-model system call. *)
type 'env sys_outcome =
  | Sys_ret of 'env State.t * Smt.Expr.t
      (** return value; the engine advances past the syscall *)
  | Sys_block of 'env State.t * int
      (** sleep on the wait list; the call re-executes on wake *)
  | Sys_choices of ('env State.t * Smt.Expr.t) list
      (** fork; the i-th variant is recorded as choice [Sys i] *)
  | Sys_err of 'env State.t * Errors.error

type 'env config = {
  solver : Smt.Solver.t;
  handler : 'env handler;
  coverage : Bytes.t;  (** line-coverage bit vector shared by this engine *)
  stats : stats;
  max_steps : int option;  (** per-path instruction cap (hang detector) *)
  check_div_zero : bool;
  global_alloc : int ref option;
      (** ablation: shared allocator that breaks replay (paper section 6) *)
  preempt_interval : int option;
      (** instruction-level preemption (section 4.2): every N instructions
          the scheduler runs; under forking policies that explores thread
          interleavings at instruction granularity — race detection *)
  concrete_inputs : (string * string) list option;
      (** test-case replay mode: make_symbolic writes these concrete bytes
          instead of fresh symbols, so a generated test case re-executes
          its path concretely *)
  mutable inputs_consumed : int;
  obs : Obs.Sink.t option;
      (** observability sink scoped to the owning worker; [None] keeps
          the executor unobserved at the cost of one branch per fork *)
}

and 'env handler =
  'env config -> 'env State.t -> num:int -> dst:int -> args:Smt.Expr.t list -> 'env sys_outcome

val make_config :
  ?max_steps:int option ->
  ?check_div_zero:bool ->
  ?global_alloc:int ref option ->
  ?preempt_interval:int option ->
  ?concrete_inputs:(string * string) list option ->
  ?obs:Obs.Sink.t ->
  solver:Smt.Solver.t ->
  handler:'env handler ->
  nlines:int ->
  unit ->
  'env config

(** Handler for programs that make no environment calls. *)
val no_env_handler : unit handler

val coverage_count : 'env config -> int

(** OR an external coverage vector (e.g. the balancer's global view) into
    this engine's, whose length it must not exceed. *)
val merge_coverage : 'env config -> Bytes.t -> unit

type 'env stepped = {
  running : 'env State.t list;
  finished : ('env State.t * Errors.termination) list;
}

(** Force an expression to one concrete value, constraining the path to
    it.  Uses {!Smt.Solver.check_deterministic} so replaying workers
    concretize identically. *)
val concretize : 'env config -> 'env State.t -> Smt.Expr.t -> 'env State.t * int64

val concretize_addr : 'env config -> 'env State.t -> Smt.Expr.t -> 'env State.t * int

(** The engine primitive behind POSIX fork(): duplicate the address space
    and the calling thread, whose copy gets 0 in register [dst].  Returns
    the state and the child pid. *)
val prim_process_fork : 'env State.t -> dst:int -> 'env State.t * int

(** Terminate every thread of the calling process, recording the exit
    code (args = [[code]]). *)
val prim_process_terminate : 'env config -> 'env State.t -> Smt.Expr.t list -> 'env State.t

(** Instructions a state runs per selection unless [fuel] says less. *)
val quantum : int

(** Run the state's current thread for one quantum: instructions retire
    until one pushes a {!Path.choice} (a fork, including one whose other
    arm terminates), the path terminates, or [fuel] (default {!quantum},
    at least 1) instructions have retired.  [max_steps] and preemption
    apply per instruction.  [replay] routes the instruction count to the
    replay counter instead of the useful-work counter. *)
val step : 'env config -> ?replay:bool -> ?fuel:int -> 'env State.t -> 'env stepped
