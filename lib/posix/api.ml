(* The C-library-like surface that target programs use: thin mini-C
   wrappers over the POSIX model's syscalls and the engine primitives.
   This plays the role of Cloud9's symbolic C library (paper Fig. 4):
   target code calls [read]/[write]/[socket]/... exactly as C code would,
   and tests use the cloud9_* calls of Tables 1-3. *)

open Lang.Ast
module Esys = Engine.Executor.Sysno

let sc num args = Syscall (num, args)

(* --- engine primitives (cloud9_* of paper Table 1/2) ------------------------- *)

let make_shared ptr = sc Esys.make_shared [ ptr ]
let thread_create fname arg = sc Esys.thread_create [ Str fname; arg ]
let thread_terminate () = sc Esys.thread_terminate []
let process_fork () = sc Esys.process_fork []
let process_terminate code = sc Esys.process_terminate [ code ]
let get_context () = sc Esys.get_context []
let thread_preempt () = sc Esys.thread_preempt []
let thread_sleep wl = sc Esys.thread_sleep [ wl ]
let thread_notify wl ~all = sc Esys.thread_notify [ wl; all ]
let get_wlist () = sc Esys.get_wlist []
let make_symbolic ptr len name = sc Esys.make_symbolic [ ptr; len; Str name ]
let set_max_heap bytes = sc Esys.set_max_heap [ bytes ]
let set_scheduler policy = sc Esys.set_scheduler [ policy ]
let assume cond = sc Esys.assume [ cond ]

(* scheduler policy encodings understood by set_scheduler *)
let sched_round_robin = Num 0L
let sched_fork_all = Num 1L
let sched_context_bound n = Num (Int64.of_int (100 + n))

(* --- POSIX calls ----------------------------------------------------------------- *)

let openf path flags = sc Sysno.open_ [ path; flags ]
let close fd = sc Sysno.close [ fd ]
let read fd buf len = sc Sysno.read [ fd; buf; len ]
let write fd buf len = sc Sysno.write [ fd; buf; len ]
let pipe fds = sc Sysno.pipe [ fds ]
let socket proto = sc Sysno.socket [ proto ]
let bind fd port = sc Sysno.bind [ fd; port ]
let listen fd = sc Sysno.listen [ fd ]
let accept fd = sc Sysno.accept [ fd ]
let connect fd port = sc Sysno.connect [ fd; port ]
let send fd buf len = sc Sysno.send [ fd; buf; len ]
let recv fd buf len = sc Sysno.recv [ fd; buf; len ]
let sendto fd buf len port = sc Sysno.sendto [ fd; buf; len; port ]
let recvfrom fd buf len = sc Sysno.recvfrom [ fd; buf; len ]
let select rd_set wr_set nfds = sc Sysno.select [ rd_set; wr_set; nfds ]
let ioctl fd code arg = sc Sysno.ioctl [ fd; code; arg ]
let dup fd = sc Sysno.dup [ fd ]
let lseek fd off whence = sc Sysno.lseek [ fd; off; whence ]
let fstat_size fd = sc Sysno.fstat_size [ fd ]
let unlink path = sc Sysno.unlink [ path ]
let waitpid pid = sc Sysno.waitpid [ pid ]
let fi_enable () = sc Sysno.fi_enable []
let fi_disable () = sc Sysno.fi_disable []
let mkfile path content len = sc Sysno.mkfile [ path; content; len ]
let make_symbolic_file path size = sc Sysno.make_symbolic_file [ path; size ]
let exit_ code = sc Sysno.exit_ [ code ]
let time () = sc Sysno.time []
let fork () = sc Sysno.fork_ []
let fcntl fd cmd arg = sc Sysno.fcntl [ fd; cmd; arg ]
let dup2 fd newfd = sc Sysno.dup2 [ fd; newfd ]

(* flag / protocol constants as mini-C literals *)
let o_rdonly = Num (Int64.of_int Sysno.o_rdonly)
let o_wronly = Num (Int64.of_int Sysno.o_wronly)
let o_rdwr = Num (Int64.of_int Sysno.o_rdwr)
let o_creat = Num (Int64.of_int Sysno.o_creat)
let o_trunc = Num (Int64.of_int Sysno.o_trunc)
let o_append = Num (Int64.of_int Sysno.o_append)
let sock_stream = Num (Int64.of_int Sysno.sock_stream)
let sock_dgram = Num (Int64.of_int Sysno.sock_dgram)
let sio_symbolic = Num (Int64.of_int Sysno.sio_symbolic)
let sio_pkt_fragment = Num (Int64.of_int Sysno.sio_pkt_fragment)
let sio_fault_inj = Num (Int64.of_int Sysno.sio_fault_inj)
let rd_flag = Num (Int64.of_int Sysno.rd)
let wr_flag = Num (Int64.of_int Sysno.wr)
let f_getfl = Num (Int64.of_int Sysno.f_getfl)
let f_setfl = Num (Int64.of_int Sysno.f_setfl)
let o_nonblock = Num (Int64.of_int Sysno.o_nonblock)

(* --- pthread-style helper functions, compiled into the target program --------------- *)

(* The mutex/condvar implementations below are the mini-C translation of
   the paper's Fig. 5: cooperative scheduling means no atomicity is
   needed, just sleep/notify and counters.  A mutex is a u64[3] =
   { wlist, taken, queued }. *)

open Lang.Builder

let mutex_funcs =
  [
    fn "mutex_init" [ ("m", Ptr u64) ] None
      [
        set (idx (v "m") (n 0)) (cast u64 (get_wlist ()));
        set (idx (v "m") (n 1)) (n 0);
        set (idx (v "m") (n 2)) (n 0);
      ];
    fn "mutex_lock" [ ("m", Ptr u64) ] None
      [
        while_
          (idx (v "m") (n 2) >! n 0 ||! (idx (v "m") (n 1) <>! n 0))
          [
            set (idx (v "m") (n 2)) (idx (v "m") (n 2) +! n 1);
            expr (thread_sleep (cast i64 (idx (v "m") (n 0))));
            set (idx (v "m") (n 2)) (idx (v "m") (n 2) -! n 1);
          ];
        set (idx (v "m") (n 1)) (n 1);
      ];
    fn "mutex_unlock" [ ("m", Ptr u64) ] None
      [
        set (idx (v "m") (n 1)) (n 0);
        when_
          (idx (v "m") (n 2) >! n 0)
          [ expr (thread_notify (cast i64 (idx (v "m") (n 0))) ~all:(n 0)) ];
      ];
    (* condition variable: a u64[1] = { wlist } *)
    fn "cond_init" [ ("c", Ptr u64) ] None
      [ set (idx (v "c") (n 0)) (cast u64 (get_wlist ())) ];
    fn "cond_wait" [ ("c", Ptr u64); ("m", Ptr u64) ] None
      [
        call_void "mutex_unlock" [ v "m" ];
        expr (thread_sleep (cast i64 (idx (v "c") (n 0))));
        call_void "mutex_lock" [ v "m" ];
      ];
    fn "cond_signal" [ ("c", Ptr u64) ] None
      [ expr (thread_notify (cast i64 (idx (v "c") (n 0))) ~all:(n 0)) ];
    fn "cond_broadcast" [ ("c", Ptr u64) ] None
      [ expr (thread_notify (cast i64 (idx (v "c") (n 0))) ~all:(n 1)) ];
  ]

(* Common string helpers targets keep rewriting; compiled mini-C. *)
let string_funcs =
  [
    fn "str_len" [ ("s", Ptr u8) ] (Some u32)
      [
        decl "i" u32 (Some (n 0));
        while_ (idx (v "s") (v "i") <>! n 0) [ incr_ "i" ];
        ret (v "i");
      ];
    fn "str_eq" [ ("a", Ptr u8); ("b", Ptr u8) ] (Some u32)
      [
        decl "i" u32 (Some (n 0));
        while_ (idx (v "a") (v "i") ==! idx (v "b") (v "i"))
          [ when_ (idx (v "a") (v "i") ==! n 0) [ ret (n 1) ]; incr_ "i" ];
        ret (n 0);
      ];
    fn "str_copy" [ ("dst", Ptr u8); ("src", Ptr u8) ] (Some u32)
      [
        decl "i" u32 (Some (n 0));
        while_ (idx (v "src") (v "i") <>! n 0)
          [ set (idx (v "dst") (v "i")) (idx (v "src") (v "i")); incr_ "i" ];
        set (idx (v "dst") (v "i")) (n 0);
        ret (v "i");
      ];
    fn "mem_copy" [ ("dst", Ptr u8); ("src", Ptr u8); ("len", u32) ] None
      [
        for_range "i" ~from:(n 0) ~below:(v "len")
          [ set (idx (v "dst") (v "i")) (idx (v "src") (v "i")) ];
      ];
    fn "mem_set" [ ("dst", Ptr u8); ("c", u8); ("len", u32) ] None
      [ for_range "i" ~from:(n 0) ~below:(v "len") [ set (idx (v "dst") (v "i")) (v "c") ] ];
  ]

(* The runtime support bundle most POSIX targets link in. *)
let runtime = mutex_funcs @ string_funcs

(* --- running POSIX programs --------------------------------------------------------- *)

let handle = Handler.handle

(* Build an engine configuration wired to the POSIX model. *)
let make_config ?max_steps ?check_div_zero ?global_alloc ?preempt_interval ?concrete_inputs
    ?solver ?obs ~nlines () =
  let solver = match solver with Some s -> s | None -> Smt.Solver.create ?obs () in
  Engine.Executor.make_config ~solver ~handler:handle ~nlines
    ?max_steps:(Option.map Option.some max_steps)
    ?preempt_interval:(Option.map Option.some preempt_interval)
    ?concrete_inputs:(Option.map Option.some concrete_inputs)
    ?check_div_zero ?global_alloc ?obs ()

let initial_state program ~args = Engine.State.init program ~env:(Env.init ()) ~args
