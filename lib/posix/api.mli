(** The C-library-like surface target programs use: mini-C wrappers over
    the POSIX model's syscalls and the engine primitives — the role of
    Cloud9's symbolic C library (paper Fig. 4).  Expression builders take
    and return {!Lang.Ast.expr}; wrap them with {!Lang.Builder.expr} or
    bind their results to use them as statements. *)

open Lang.Ast

(** {1 Engine primitives (cloud9_* of paper Tables 1 and 2)} *)

val make_shared : expr -> expr
val thread_create : string -> expr -> expr
val thread_terminate : unit -> expr
val process_fork : unit -> expr
val process_terminate : expr -> expr
val get_context : unit -> expr
val thread_preempt : unit -> expr
val thread_sleep : expr -> expr
val thread_notify : expr -> all:expr -> expr
val get_wlist : unit -> expr
val make_symbolic : expr -> expr -> string -> expr
val set_max_heap : expr -> expr
val set_scheduler : expr -> expr
val assume : expr -> expr

val sched_round_robin : expr
val sched_fork_all : expr
val sched_context_bound : int -> expr

(** {1 POSIX calls} *)

val openf : expr -> expr -> expr
val close : expr -> expr
val read : expr -> expr -> expr -> expr
val write : expr -> expr -> expr -> expr
val pipe : expr -> expr
val socket : expr -> expr
val bind : expr -> expr -> expr
val listen : expr -> expr
val accept : expr -> expr
val connect : expr -> expr -> expr
val send : expr -> expr -> expr -> expr
val recv : expr -> expr -> expr -> expr
val sendto : expr -> expr -> expr -> expr -> expr
val recvfrom : expr -> expr -> expr -> expr
val select : expr -> expr -> expr -> expr
val ioctl : expr -> expr -> expr -> expr
val dup : expr -> expr
val lseek : expr -> expr -> expr -> expr
val fstat_size : expr -> expr
val unlink : expr -> expr
val waitpid : expr -> expr
val fi_enable : unit -> expr
val fi_disable : unit -> expr
val mkfile : expr -> expr -> expr -> expr
val make_symbolic_file : expr -> expr -> expr
val exit_ : expr -> expr
val time : unit -> expr
val fork : unit -> expr
val fcntl : expr -> expr -> expr -> expr
val dup2 : expr -> expr -> expr

(** {1 Flag and protocol constants} *)

val o_rdonly : expr
val o_wronly : expr
val o_rdwr : expr
val o_creat : expr
val o_trunc : expr
val o_append : expr
val sock_stream : expr
val sock_dgram : expr
val sio_symbolic : expr
val sio_pkt_fragment : expr
val sio_fault_inj : expr
val rd_flag : expr
val wr_flag : expr
val f_getfl : expr
val f_setfl : expr
val o_nonblock : expr

(** {1 Compiled runtime support} *)

(** pthread-style mutex/condvar helpers (the mini-C translation of the
    paper's Fig. 5) — a mutex is a [u64[3]], a condvar a [u64[1]]. *)
val mutex_funcs : func list

(** Bounded string/memory helpers ([str_len], [str_eq], [str_copy],
    [mem_copy], [mem_set]). *)
val string_funcs : func list

(** [mutex_funcs @ string_funcs] — the bundle most POSIX targets link. *)
val runtime : func list

(** {1 Running POSIX programs} *)

val handle : Handler.env Engine.Executor.handler

(** An engine configuration wired to the POSIX model.  [obs] is handed
    to both the engine config and (when no [solver] is supplied) the
    freshly created solver, so fork and query events share one sink. *)
val make_config :
  ?max_steps:int ->
  ?check_div_zero:bool ->
  ?global_alloc:int ref option ->
  ?preempt_interval:int ->
  ?concrete_inputs:(string * string) list ->
  ?solver:Smt.Solver.t ->
  ?obs:Obs.Sink.t ->
  nlines:int ->
  unit ->
  Handler.env Engine.Executor.config

(** Initial state with a fresh POSIX environment. *)
val initial_state :
  Cvm.Program.t -> args:Smt.Expr.t list -> Handler.env Engine.State.t
