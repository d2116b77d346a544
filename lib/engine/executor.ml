(* The symbolic executor: quantum stepping of execution states, forking
   at symbolic branches, scheduling decisions, and forking system calls.
   This is the KLEE-analogue at the heart of each Cloud9 worker.

   [step] runs a state for one quantum, the batch of instructions a KLEE
   searcher's pick buys (paper section 7): instructions retire until one
   pushes a {!Path.choice} (a fork, including one whose other arm
   terminated), the path terminates, or [fuel] instructions have retired.
   Seen from outside, stepping is purely functional over {!State.t}: it
   returns the successor states (one, or several on forks) plus any
   terminated states.  Every fork appends a choice to each successor's
   path, so a state's path uniquely addresses its node in the execution
   tree and serves as the transfer encoding for jobs.

   Inside a quantum, straight-line instructions update only a private
   cursor over the current thread's block, index, top-frame registers,
   memory and step counters.  The cursor is committed to a persistent
   state once, when the quantum ends or before an instruction that needs
   one (a fork, a concretization, a call or a system call): KLEE's
   copy-on-fork discipline.  Nothing mutable escapes [step]. *)

module Imap = State.Imap
module Instr = Cvm.Instr
module Program = Cvm.Program
module Memory = Cvm.Memory
module E = Smt.Expr

(* Engine primitive system calls (paper Table 1 plus the symbolic-test
   primitives of Table 2 that the engine must implement itself). *)
module Sysno = struct
  let make_shared = 1
  let thread_create = 2
  let thread_terminate = 3
  let process_fork = 4
  let process_terminate = 5
  let get_context = 6
  let thread_preempt = 7
  let thread_sleep = 8
  let thread_notify = 9
  let get_wlist = 10
  let make_symbolic = 11
  let set_max_heap = 12
  let set_scheduler = 13
  let assume = 14

  (* numbers >= [model_base] go to the environment model's handler *)
  let model_base = 100
end

type stats = {
  mutable useful_instrs : int;   (* instructions retired while exploring *)
  mutable replay_instrs : int;   (* instructions retired while replaying jobs *)
  mutable forks : int;
  mutable terminated_paths : int;
  mutable covered_lines : int;
}

let make_stats () =
  { useful_instrs = 0; replay_instrs = 0; forks = 0; terminated_paths = 0; covered_lines = 0 }

type 'env sys_outcome =
  | Sys_ret of 'env State.t * E.t                (* return value; pc advances *)
  | Sys_block of 'env State.t * int              (* sleep on wait list; call retried on wake *)
  | Sys_choices of ('env State.t * E.t) list     (* fork; the i-th variant gets choice Sys i *)
  | Sys_err of 'env State.t * Errors.error

type 'env config = {
  solver : Smt.Solver.t;
  handler : 'env handler;
  coverage : Bytes.t;            (* shared line-coverage bit vector, 1 bit per line *)
  stats : stats;
  max_steps : int option;        (* per-path instruction cap (hang detector) *)
  check_div_zero : bool;
  global_alloc : int ref option; (* ablation: shared allocator that breaks replay *)
  preempt_interval : int option;
  (* instruction-level preemption (paper section 4.2: "automatically
     insert preemption calls at instruction level, as would be necessary
     when testing for race conditions"): every N instructions the
     scheduler runs, and under Fork_all / Context_bound policies that
     forks over the runnable threads *)
  concrete_inputs : (string * string) list option;
  (* test-case replay mode: make_symbolic writes these concrete bytes
     (matched by input name, in creation order for repeated names)
     instead of fresh symbols, so a generated test case re-executes its
     exact path concretely *)
  mutable inputs_consumed : int;
  obs : Obs.Sink.t option;
  (* observability sink scoped to the owning worker; [None] (the
     default) keeps the executor entirely unobserved — the only cost is
     one branch per fork, never per instruction *)
}

and 'env handler =
  'env config -> 'env State.t -> num:int -> dst:int -> args:E.t list -> 'env sys_outcome

let make_config ?(max_steps = None) ?(check_div_zero = true) ?(global_alloc = None)
    ?(preempt_interval = None) ?(concrete_inputs = None) ?obs
    ~solver ~handler ~nlines () =
  {
    solver;
    handler;
    coverage = Bytes.make ((nlines / 8) + 1) '\000';
    stats = make_stats ();
    max_steps;
    check_div_zero;
    global_alloc;
    preempt_interval;
    concrete_inputs;
    inputs_consumed = 0;
    obs;
  }

let note_fork cfg (st : 'env State.t) ~arms =
  match cfg.obs with
  | None -> ()
  | Some s -> Obs.Sink.event s (Obs.Event.Fork { depth = st.State.depth; arms })

(* A handler for programs that make no environment calls. *)
let no_env_handler : unit handler =
 fun _config st ~num ~dst:_ ~args:_ ->
  Sys_err (st, Errors.Model_failure (Printf.sprintf "no handler for syscall %d" num))

(* --- coverage -------------------------------------------------------------- *)

let line_covered cfg line = Char.code (Bytes.get cfg.coverage (line / 8)) land (1 lsl (line mod 8)) <> 0

(* Mark [line] covered; true if it was new. *)
let cover cfg line =
  (not (line_covered cfg line))
  && begin
       let b = Char.code (Bytes.get cfg.coverage (line / 8)) in
       Bytes.set cfg.coverage (line / 8) (Char.chr (b lor (1 lsl (line mod 8))));
       cfg.stats.covered_lines <- cfg.stats.covered_lines + 1;
       true
     end

let coverage_count cfg = cfg.stats.covered_lines

(* The number of lines a coverage bit vector marks covered. *)
let popcount_bytes b =
  let n = ref 0 in
  Bytes.iter
    (fun c ->
      let x = ref (Char.code c) in
      while !x <> 0 do
        x := !x land (!x - 1);
        incr n
      done)
    b;
  !n

(* Merge an external coverage bit vector (e.g. the load balancer's global
   view) into this engine's; returns the updated covered-line count. *)
let merge_coverage cfg vec =
  for i = 0 to min (Bytes.length vec) (Bytes.length cfg.coverage) - 1 do
    Bytes.set cfg.coverage i
      (Char.chr (Char.code (Bytes.get cfg.coverage i) lor Char.code (Bytes.get vec i)))
  done;
  cfg.stats.covered_lines <- popcount_bytes cfg.coverage;
  cfg.stats.covered_lines

(* --- step results ------------------------------------------------------------ *)

type 'env stepped = {
  running : 'env State.t list;
  finished : ('env State.t * Errors.termination) list;
}

let continue st = { running = [ st ]; finished = [] }
let finish st term = { running = []; finished = [ (st, term) ] }

(* --- concretization ------------------------------------------------------------ *)

exception Stuck of Errors.error

(* Force an expression to a single concrete value, constraining the path
   to it.  Sound (the value satisfies the path condition) but gives up
   completeness over other values, as in KLEE's external-call
   concretization. *)
let concretize cfg (st : 'env State.t) e =
  let e = Smt.Simplify.simplify (State.apply_subst st e) in
  match E.const_value e with
  | Some v -> (st, v)
  | None -> (
    (* deterministic model: replaying workers concretize identically *)
    match Smt.Solver.check_deterministic cfg.solver st.State.pc with
    | Smt.Solver.Unsat -> raise (Stuck (Errors.Invalid_op "path condition unsatisfiable"))
    | Smt.Solver.Sat m ->
      let v = Smt.Model.eval m e in
      (State.add_constraint st (E.eq e (E.const ~width:(E.width e) v)), v))

let concretize_addr cfg st e =
  let st, v = concretize cfg st e in
  (st, Int64.to_int v)

(* --- scheduling ------------------------------------------------------------------ *)

(* Pick the next thread(s) after a yield point.  Deterministic round-robin
   produces one successor and records no choice; the forking policies
   produce one successor per runnable thread, tagged [Sched i]. *)
let yield cfg (st : 'env State.t) : 'env stepped =
  let st = { st with State.since_sched = 0 } in
  let runnable = State.runnable_tids st in
  match runnable with
  | [] ->
    if State.live_threads st > 0 then finish st (Errors.Error Errors.Deadlock)
    else finish st (Errors.Exit st.State.exit_code)
  | [ tid ] -> continue { st with State.cur = tid }
  | tids -> (
    let round_robin () =
      (* first runnable tid strictly greater than cur, wrapping *)
      match List.find_opt (fun tid -> tid > st.State.cur) tids with
      | Some tid -> tid
      | None -> List.hd tids
    in
    match st.State.sched with
    | State.Round_robin -> continue { st with State.cur = round_robin () }
    | State.Fork_all ->
      cfg.stats.forks <- cfg.stats.forks + List.length tids - 1;
      note_fork cfg st ~arms:(List.length tids);
      {
        running =
          List.mapi
            (fun i tid -> State.push_choice { st with State.cur = tid } (Path.Sched i))
            tids;
        finished = [];
      }
    | State.Context_bound bound ->
      if st.State.preemptions >= bound then continue { st with State.cur = round_robin () }
      else begin
        let default = round_robin () in
        cfg.stats.forks <- cfg.stats.forks + List.length tids - 1;
        note_fork cfg st ~arms:(List.length tids);
        {
          running =
            List.mapi
              (fun i tid ->
                let st' =
                  if tid = default then st
                  else { st with State.preemptions = st.State.preemptions + 1 }
                in
                State.push_choice { st' with State.cur = tid } (Path.Sched i))
              tids;
          finished = [];
        }
      end)

(* --- allocation ------------------------------------------------------------------- *)

(* The global-counter mode deliberately recreates the broken-replay
   behaviour of a host-wide allocator (paper section 6): addresses then
   depend on allocations made by *other* states. *)
let alloc_mem cfg mem ~pid ~size =
  let mem =
    match cfg.global_alloc with
    | None -> mem
    | Some counter -> Memory.set_next_addr mem !counter
  in
  let mem, base = Memory.alloc mem ~pid ~size in
  (match cfg.global_alloc with
  | Some counter -> counter := max !counter (Memory.next_addr mem)
  | None -> ());
  (mem, base)

let alloc_update cfg (st : 'env State.t) ~pid ~size =
  let mem, base = alloc_mem cfg st.State.mem ~pid ~size in
  ({ st with State.mem }, base)

(* --- branching --------------------------------------------------------------------------- *)

let truth_expr c =
  if E.width c = 1 then Smt.Simplify.simplify c
  else Smt.Simplify.simplify (E.ne c (E.const ~width:(E.width c) 0L))

(* Fork on a boolean condition.  Returns which sides are feasible; when
   both are, the two successors get Branch choices and the path condition
   is extended. *)
let fork_on cfg (st : 'env State.t) cond ~on_true ~on_false : 'env stepped =
  let b = truth_expr cond in
  if E.is_true b then on_true st
  else if E.is_false b then on_false st
  else begin
    (* one fused entry: shared simplify and independence slice for both
       polarities *)
    let t_ok, f_ok = Smt.Solver.fork_feasible cfg.solver ~pc:st.State.pc b in
    match (t_ok, f_ok) with
    | true, false -> on_true st
    | false, true -> on_false st
    | false, false -> finish st (Errors.Error (Errors.Invalid_op "infeasible path condition"))
    | true, true ->
      cfg.stats.forks <- cfg.stats.forks + 1;
      note_fork cfg st ~arms:2;
      let st_t = State.push_choice (State.add_constraint st b) (Path.Branch true) in
      let st_f = State.push_choice (State.add_constraint st (E.not_ b)) (Path.Branch false) in
      let r1 = on_true st_t in
      let r2 = on_false st_f in
      { running = r1.running @ r2.running; finished = r1.finished @ r2.finished }
  end

(* Resolve a possibly-symbolic address for an access of [len] bytes, in
   the KLEE style: find the object a model of the address points into,
   fork off an error path if the address can leave that object's bounds,
   then pin the address to the model value on the in-bounds path.  This
   keeps out-of-bounds accesses through symbolic indices detectable (e.g.
   a table lookup indexed by unvalidated input) while memory itself stays
   byte-granular and concrete-addressed. *)
let resolve_access cfg (st : 'env State.t) addr_e len ~(k : 'env State.t -> int -> 'env stepped) :
    'env stepped =
  let addr_e = Smt.Simplify.simplify (State.apply_subst st addr_e) in
  match E.const_value addr_e with
  | Some v -> k st (Int64.to_int v)
  | None -> (
    match Smt.Solver.check_deterministic cfg.solver st.State.pc with
    | Smt.Solver.Unsat -> finish st (Errors.Error (Errors.Invalid_op "path condition unsatisfiable"))
    | Smt.Solver.Sat m -> (
      let v = Int64.to_int (Smt.Model.eval m addr_e) in
      let pid = State.current_pid st in
      match Memory.containing_object st.State.mem ~pid ~addr:v with
      | None ->
        (* the model address hits no object: pin and let the access fault *)
        k (State.add_constraint st (E.eq addr_e (E.const ~width:64 (Int64.of_int v)))) v
      | Some (base, size) ->
        let c64 x = E.const ~width:64 (Int64.of_int x) in
        let in_bounds =
          E.and_ (E.ule (c64 base) addr_e) (E.ule (E.add addr_e (c64 len)) (c64 (base + size)))
        in
        fork_on cfg st in_bounds
          ~on_true:(fun st ->
            k (State.add_constraint st (E.eq addr_e (c64 v))) v)
          ~on_false:(fun st ->
            finish st
              (Errors.Error
                 (Errors.Memory_fault
                    (Printf.sprintf "symbolic pointer out of object bounds (object 0x%x+%d)" base
                       size))))))

(* --- engine primitives ---------------------------------------------------------------------- *)

let prim_make_symbolic cfg st args =
  match args with
  | [ addr_e; len_e; name_e ] ->
    let st, addr = concretize_addr cfg st addr_e in
    let st, len = concretize cfg st len_e in
    let st, name_addr = concretize_addr cfg st name_e in
    let name = Memory.read_cstring st.State.mem ~pid:(State.current_pid st) ~addr:name_addr in
    let pid = State.current_pid st in
    let bytes =
      (* replay mode: substitute the test case's concrete bytes *)
      match cfg.concrete_inputs with
      | None -> None
      | Some inputs -> (
        let nth = cfg.inputs_consumed in
        cfg.inputs_consumed <- nth + 1;
        match List.nth_opt inputs nth with
        | Some (iname, data) when iname = name -> Some data
        | Some _ | None -> List.assoc_opt name inputs)
    in
    let st, bytes =
      match bytes with
      | Some data ->
        ( st,
          Array.init (Int64.to_int len) (fun i ->
              E.const ~width:8 (Int64.of_int (if i < String.length data then Char.code data.[i] else 0)))
        )
      | None ->
        let st, syms = State.fresh_input st ~name ~count:(Int64.to_int len) in
        (st, Array.of_list syms)
    in
    let mem = ref st.State.mem in
    for i = 0 to Array.length bytes - 1 do
      mem := Memory.store !mem ~pid ~addr:(addr + i) bytes.(i)
    done;
    Sys_ret ({ st with State.mem = !mem }, E.const ~width:64 0L)
  | _ -> Sys_err (st, Errors.Model_failure "make_symbolic expects (addr, len, name)")

let prim_thread_create cfg st args =
  match args with
  | [ fname_e; arg_e ] ->
    let st, fname_addr = concretize_addr cfg st fname_e in
    let fname = Memory.read_cstring st.State.mem ~pid:(State.current_pid st) ~addr:fname_addr in
    (match State.func st fname with
    | None -> Sys_err (st, Errors.Model_failure ("thread_create: unknown function " ^ fname))
    | Some f ->
      let pid = State.current_pid st in
      let st, frame_base =
        if f.Program.frame_size > 0 then alloc_update cfg st ~pid ~size:f.Program.frame_size
        else (st, 0)
      in
      let nargs = if f.Program.nparams >= 1 then [ arg_e ] else [] in
      let frame = State.make_frame f ~frame_base ~args:nargs ~ret_reg:None ~ret_block:0 ~ret_index:0 in
      let tid = st.State.next_tid in
      let thread =
        { State.tid; pid; frames = [ frame ]; block = 0; index = 0; status = State.Runnable }
      in
      let st =
        { st with State.next_tid = tid + 1; threads = Imap.add tid thread st.State.threads }
      in
      Sys_ret (st, E.const ~width:64 (Int64.of_int tid)))
  | _ -> Sys_err (st, Errors.Model_failure "thread_create expects (func_name, arg)")

let prim_process_fork (st : 'env State.t) ~dst =
  let th = State.current st in
  let child_pid = st.State.next_pid in
  let mem = Memory.clone_space st.State.mem ~parent:th.State.pid ~child:child_pid in
  let child_tid = st.State.next_tid in
  (* the child is a copy of the calling thread only, in the new space;
     it resumes after the fork call with return value 0 *)
  let frames =
    match th.State.frames with
    | f :: rest ->
      let regs = Array.copy f.State.regs in
      regs.(dst) <- E.const ~width:64 0L;
      { f with State.regs } :: rest
    | [] -> []
  in
  let child =
    { th with State.tid = child_tid; pid = child_pid; frames; index = th.State.index + 1 }
  in
  let st =
    {
      st with
      State.mem;
      next_pid = child_pid + 1;
      next_tid = child_tid + 1;
      threads = Imap.add child_tid child st.State.threads;
    }
  in
  (st, child_pid)

let prim_process_terminate cfg (st : 'env State.t) args =
  let code_e = match args with [ c ] -> c | _ -> E.const ~width:64 0L in
  let st, code = concretize cfg st code_e in
  let pid = State.current_pid st in
  let threads =
    Imap.map
      (fun th -> if th.State.pid = pid then { th with State.status = State.Exited } else th)
      st.State.threads
  in
  let st = { st with State.threads } in
  let st = if pid = 0 then { st with State.exit_code = code } else st in
  st

(* --- system calls ------------------------------------------------------------------------------- *)

let step_syscall cfg (st : 'env State.t) ~dst ~num ~args : 'env stepped =
  (* Set the destination register, advance past the syscall, and yield if
     the model put the current thread to sleep or terminated it (e.g. the
     POSIX exit() model marks the process's threads Exited). *)
  let resume st v =
    let st = State.advance (State.set_reg st dst v) in
    if (State.current st).State.status = State.Runnable then continue st else yield cfg st
  in
  let ret st v = resume st v in
  let reti st v = ret st (E.const ~width:64 (Int64.of_int v)) in
  if num >= Sysno.model_base then
    match cfg.handler cfg st ~num ~dst ~args with
    | Sys_ret (st, v) -> resume st v
    | Sys_block (st, wl) ->
      (* go to sleep with the pc still pointing at the syscall: it will be
         re-executed when the thread wakes *)
      let th = State.current st in
      let st = State.update_thread st { th with State.status = State.Sleeping wl } in
      yield cfg st
    | Sys_choices variants ->
      let n = List.length variants in
      cfg.stats.forks <- cfg.stats.forks + n - 1;
      if n > 1 then note_fork cfg st ~arms:n;
      let stepped =
        List.mapi
          (fun i (st, v) -> resume (if n > 1 then State.push_choice st (Path.Sys i) else st) v)
          variants
      in
      {
        running = List.concat_map (fun r -> r.running) stepped;
        finished = List.concat_map (fun r -> r.finished) stepped;
      }
    | Sys_err (st, e) -> finish st (Errors.Error e)
  else if num = Sysno.make_shared then begin
    match args with
    | [ addr_e ] ->
      let st, addr = concretize_addr cfg st addr_e in
      let mem = Memory.make_shared st.State.mem ~pid:(State.current_pid st) ~addr in
      reti { st with State.mem } 0
    | _ -> finish st (Errors.Error (Errors.Model_failure "make_shared expects (addr)"))
  end
  else if num = Sysno.thread_create then begin
    match prim_thread_create cfg st args with
    | Sys_ret (st, v) -> ret st v
    | Sys_err (st, e) -> finish st (Errors.Error e)
    | Sys_block _ | Sys_choices _ -> assert false
  end
  else if num = Sysno.thread_terminate then begin
    let th = State.current st in
    let st = State.update_thread st { th with State.status = State.Exited } in
    yield cfg st
  end
  else if num = Sysno.process_fork then begin
    (* the parent returns the child pid, the child 0 *)
    let st, child_pid = prim_process_fork st ~dst in
    reti st child_pid
  end
  else if num = Sysno.process_terminate then yield cfg (prim_process_terminate cfg st args)
  else if num = Sysno.get_context then begin
    let th = State.current st in
    reti st ((th.State.pid lsl 16) lor th.State.tid)
  end
  else if num = Sysno.thread_preempt then begin
    let st = State.advance (State.set_reg st dst (E.const ~width:64 0L)) in
    yield cfg st
  end
  else if num = Sysno.thread_sleep then begin
    match args with
    | [ wl_e ] ->
      let st, wl = concretize cfg st wl_e in
      let st = State.advance (State.set_reg st dst (E.const ~width:64 0L)) in
      let th = State.current st in
      let st = State.update_thread st { th with State.status = State.Sleeping (Int64.to_int wl) } in
      yield cfg st
    | _ -> finish st (Errors.Error (Errors.Model_failure "thread_sleep expects (wlist)"))
  end
  else if num = Sysno.thread_notify then begin
    match args with
    | [ wl_e; all_e ] ->
      let st, wl = concretize cfg st wl_e in
      let st, all = concretize cfg st all_e in
      let sleepers = State.sleeping_on st (Int64.to_int wl) in
      let to_wake =
        if all <> 0L then sleepers
        else match sleepers with [] -> [] | tid :: _ -> [ tid ]
      in
      let st =
        List.fold_left
          (fun st tid ->
            State.update_thread st { (State.thread_exn st tid) with State.status = State.Runnable })
          st to_wake
      in
      reti st (List.length to_wake)
    | _ -> finish st (Errors.Error (Errors.Model_failure "thread_notify expects (wlist, all)"))
  end
  else if num = Sysno.get_wlist then begin
    let wl = st.State.next_wlist in
    reti { st with State.next_wlist = wl + 1 } wl
  end
  else if num = Sysno.make_symbolic then begin
    match prim_make_symbolic cfg st args with
    | Sys_ret (st, v) -> ret st v
    | Sys_err (st, e) -> finish st (Errors.Error e)
    | Sys_block _ | Sys_choices _ -> assert false
  end
  else if num = Sysno.set_max_heap then begin
    match args with
    | [ lim_e ] ->
      let st, lim = concretize cfg st lim_e in
      reti { st with State.heap_limit = Some (Int64.to_int lim) } 0
    | _ -> finish st (Errors.Error (Errors.Model_failure "set_max_heap expects (bytes)"))
  end
  else if num = Sysno.set_scheduler then begin
    match args with
    | [ pol_e ] ->
      let st, pol = concretize cfg st pol_e in
      let sched =
        match Int64.to_int pol with
        | 0 -> State.Round_robin
        | 1 -> State.Fork_all
        | n when n >= 100 -> State.Context_bound (n - 100)
        | _ -> State.Round_robin
      in
      reti { st with State.sched } 0
    | _ -> finish st (Errors.Error (Errors.Model_failure "set_scheduler expects (policy)"))
  end
  else if num = Sysno.assume then begin
    match args with
    | [ cond_e ] ->
      let b = truth_expr cond_e in
      if Smt.Solver.branch_feasible cfg.solver ~pc:st.State.pc b then
        reti (State.add_constraint st b) 0
      else finish st Errors.Pruned
    | _ -> finish st (Errors.Error (Errors.Model_failure "assume expects (cond)"))
  end
  else finish st (Errors.Error (Errors.Model_failure (Printf.sprintf "unknown syscall %d" num)))

(* --- the stepping cursor ------------------------------------------------------------------------ *)

(* The mutable half of a state inside one quantum: the current thread's
   call stack and position, its top-frame registers, memory and the step
   counters.  [base] is the persistent state the cursor was opened on,
   stale in exactly these fields until [commit]. *)
type 'env cursor = {
  base : 'env State.t;
  th : State.thread; (* [base]'s current thread *)
  mutable frame : State.frame; (* top frame; its registers live in [regs] *)
  mutable callers : State.frame list; (* the frames under it *)
  mutable block : int;
  mutable code : Instr.t array; (* [frame.func]'s block [block] *)
  mutable index : int;
  mutable regs : E.t array;
  mutable owned : bool; (* [regs] is a private copy, written in place *)
  mutable mem : Memory.t;
  mutable steps : int;
  mutable since_sched : int;
  mutable last_new_cover : int;
}

let cursor (st : 'env State.t) =
  let th = State.current st in
  let frame, callers =
    match th.State.frames with
    | f :: rest -> (f, rest)
    | [] -> invalid_arg "Executor: current thread has no frames"
  in
  {
    base = st;
    th;
    frame;
    callers;
    block = th.State.block;
    code = frame.State.func.Program.blocks.(th.State.block);
    index = th.State.index;
    regs = frame.State.regs;
    owned = false;
    mem = st.State.mem;
    steps = st.State.steps;
    since_sched = st.State.since_sched;
    last_new_cover = st.State.last_new_cover;
  }

(* Fold [regs] back into the top frame record. *)
let sync_frame c =
  if c.regs != c.frame.State.regs then c.frame <- { c.frame with State.regs = c.regs }

(* The persistent state at the cursor.  Its registers are now shared, so
   the next write copies them. *)
let commit c =
  sync_frame c;
  c.owned <- false;
  let th = { c.th with State.frames = c.frame :: c.callers; block = c.block; index = c.index } in
  {
    c.base with
    State.threads = Imap.add th.State.tid th c.base.State.threads;
    mem = c.mem;
    steps = c.steps;
    since_sched = c.since_sched;
    last_new_cover = c.last_new_cover;
  }

let set c r e =
  if not c.owned then begin
    c.regs <- Array.copy c.regs;
    c.owned <- true
  end;
  c.regs.(r) <- e

let operand c = function
  | Instr.Reg r -> State.apply_subst c.base c.regs.(r)
  | Instr.Const e -> e
  | Instr.Imm _ | Instr.Glob _ -> invalid_arg "Executor: operand of an unresolved program"

let retire cfg ~replay c line =
  if replay then cfg.stats.replay_instrs <- cfg.stats.replay_instrs + 1
  else cfg.stats.useful_instrs <- cfg.stats.useful_instrs + 1;
  c.steps <- c.steps + 1;
  c.since_sched <- c.since_sched + 1;
  if cover cfg line then c.last_new_cover <- c.steps

(* --- one instruction ------------------------------------------------------------------------------ *)

(* Constants fold in the smart constructors on Int64; only symbolic
   results go through the rewriter's memo. *)
let simplify e = if E.is_const e then e else Smt.Simplify.simplify e

(* A concrete condition folds to [E.true_]/[E.false_] without building
   the [ne] term. *)
let truth e =
  match e.E.node with
  | E.Const { value; _ } -> if Int64.equal value 0L then E.false_ else E.true_
  | _ -> truth_expr e

let fault st f = finish st (Errors.Error (Errors.Memory_fault (Memory.fault_to_string f)))

(* Fast-path continuations; [None] means "the cursor moved on". *)
let next c =
  c.index <- c.index + 1;
  None

let jump c l =
  c.block <- l;
  c.code <- c.frame.State.func.Program.blocks.(l);
  c.index <- 0;
  None

(* The rest of the instruction needs a persistent state: commit and run
   [f] on it. *)
let on_state c f =
  let st = commit c in
  Some
    (try f st with
    | Stuck err -> finish st (Errors.Error err)
    | Memory.Fault flt -> fault st flt)

let is_div = function E.Udiv | E.Urem | E.Sdiv | E.Srem -> true | _ -> false

let call cfg c ~callee ~args ~ret_reg =
  let f = State.func_exn c.base callee in
  let args = List.map (operand c) args in
  let frame_base =
    if f.Program.frame_size > 0 then begin
      let mem, base = alloc_mem cfg c.mem ~pid:c.th.State.pid ~size:f.Program.frame_size in
      c.mem <- mem;
      base
    end
    else 0
  in
  sync_frame c;
  c.callers <- c.frame :: c.callers;
  c.frame <- State.make_frame f ~frame_base ~args ~ret_reg ~ret_block:c.block ~ret_index:(c.index + 1);
  (* the callee's registers are fresh: no copy before the first write *)
  c.regs <- c.frame.State.regs;
  c.owned <- true;
  jump c 0

(* Return to [caller], the frame under the top one. *)
let return c ~caller ~callers value =
  let callee = c.frame in
  if callee.State.frame_base <> 0 then
    c.mem <- Memory.free c.mem ~pid:c.th.State.pid ~addr:callee.State.frame_base;
  c.frame <- caller;
  c.callers <- callers;
  c.regs <- caller.State.regs;
  c.owned <- false;
  (match (callee.State.ret_reg, value) with Some r, Some v -> set c r v | _, _ -> ());
  c.block <- callee.State.ret_block;
  c.code <- caller.State.func.Program.blocks.(c.block);
  c.index <- callee.State.ret_index;
  None

(* The current thread returns from its last frame; the main thread's
   return value is the exit code. *)
let thread_exit cfg (st : 'env State.t) value =
  let th = State.current st in
  let frame = State.top_frame th in
  let st =
    if frame.State.frame_base <> 0 then
      { st with State.mem = Memory.free st.State.mem ~pid:th.State.pid ~addr:frame.State.frame_base }
    else st
  in
  let st = State.update_thread st { th with State.frames = []; status = State.Exited } in
  let st =
    match value with
    | Some v when th.State.tid = 0 ->
      let st, code = concretize cfg st v in
      { st with State.exit_code = code }
    | Some _ | None -> st
  in
  yield cfg st

(* Execute the instruction at the cursor, which [retire] has counted. *)
let exec cfg c (instr : Instr.t) : 'env stepped option =
  match instr.Instr.op with
  | Instr.Binop { dst; op; a; b } ->
    let ea = operand c a and eb = operand c b in
    if cfg.check_div_zero && is_div op && not (E.is_const eb) then
      on_state c (fun st ->
          fork_on cfg st
            (E.ne eb (E.const ~width:(E.width eb) 0L))
            ~on_true:(fun st ->
              continue (State.advance (State.set_reg st dst (simplify (E.binop op ea eb)))))
            ~on_false:(fun st -> finish st (Errors.Error Errors.Division_by_zero)))
    else if cfg.check_div_zero && is_div op && E.const_value eb = Some 0L then
      on_state c (fun st -> finish st (Errors.Error Errors.Division_by_zero))
    else begin
      set c dst (simplify (E.binop op ea eb));
      next c
    end
  | Instr.Unop { dst; op; a } ->
    set c dst (simplify (E.unop op (operand c a)));
    next c
  | Instr.Cast { dst; kind; a; width } ->
    let e = operand c a in
    set c dst
      (simplify
         (match kind with
         | Instr.Zext -> E.zext e width
         | Instr.Sext -> E.sext e width
         | Instr.Trunc -> E.extract e ~off:0 ~len:width));
    next c
  | Instr.Select { dst; cond; a; b } ->
    set c dst (simplify (E.ite (truth (operand c cond)) (operand c a) (operand c b)));
    next c
  | Instr.Mov { dst; a } ->
    set c dst (operand c a);
    next c
  | Instr.Frame { dst; off } ->
    let base = c.frame.State.frame_base in
    if base = 0 then
      on_state c (fun st -> finish st (Errors.Error (Errors.Invalid_op "Frame in frameless function")))
    else begin
      set c dst (E.const ~width:64 (Int64.of_int (base + off)));
      next c
    end
  | Instr.Load { dst; addr; len } -> (
    let addr_e = simplify (operand c addr) in
    match addr_e.E.node with
    | E.Const { value; _ } -> (
      match Memory.load c.mem ~pid:c.th.State.pid ~addr:(Int64.to_int value) ~len with
      | v ->
        set c dst v;
        next c
      | exception Memory.Fault f -> on_state c (fun st -> fault st f))
    | _ ->
      on_state c (fun st ->
          resolve_access cfg st addr_e len ~k:(fun st a ->
              match Memory.load st.State.mem ~pid:(State.current_pid st) ~addr:a ~len with
              | v -> continue (State.advance (State.set_reg st dst v))
              | exception Memory.Fault f -> fault st f)))
  | Instr.Store { addr; value } -> (
    let value = operand c value and addr_e = simplify (operand c addr) in
    match addr_e.E.node with
    | E.Const { value = a; _ } -> (
      match Memory.store c.mem ~pid:c.th.State.pid ~addr:(Int64.to_int a) value with
      | mem ->
        c.mem <- mem;
        next c
      | exception Memory.Fault f -> on_state c (fun st -> fault st f))
    | _ ->
      on_state c (fun st ->
          resolve_access cfg st addr_e (E.width value / 8) ~k:(fun st a ->
              match Memory.store st.State.mem ~pid:(State.current_pid st) ~addr:a value with
              | mem -> continue (State.advance { st with State.mem })
              | exception Memory.Fault f -> fault st f)))
  | Instr.Alloc { dst; size } ->
    let size = operand c size in
    on_state c (fun st ->
        let st, size = concretize cfg st size in
        let size = Int64.to_int size in
        let pid = State.current_pid st in
        let over_limit =
          match st.State.heap_limit with
          | Some lim -> Memory.footprint st.State.mem ~pid + size > lim
          | None -> false
        in
        if over_limit then
          (* symbolic low-memory condition: allocation fails with NULL *)
          continue (State.advance (State.set_reg st dst (E.const ~width:64 0L)))
        else begin
          let st, base = alloc_update cfg st ~pid ~size in
          continue (State.advance (State.set_reg st dst (E.const ~width:64 (Int64.of_int base))))
        end)
  | Instr.Free { addr } ->
    let addr = operand c addr in
    on_state c (fun st ->
        let st, a = concretize_addr cfg st addr in
        match Memory.free st.State.mem ~pid:(State.current_pid st) ~addr:a with
        | mem -> continue (State.advance { st with State.mem })
        | exception Memory.Fault f -> fault st f)
  | Instr.Jmp l -> jump c l
  | Instr.Br { cond; then_; else_ } ->
    let b = truth (operand c cond) in
    if E.is_true b then jump c then_
    else if E.is_false b then jump c else_
    else
      on_state c (fun st ->
          fork_on cfg st b
            ~on_true:(fun st -> continue (State.goto st then_))
            ~on_false:(fun st -> continue (State.goto st else_)))
  | Instr.Assert { cond; msg } ->
    let b = truth (operand c cond) in
    if E.is_true b then next c
    else
      on_state c (fun st ->
          fork_on cfg st b
            ~on_true:(fun st -> continue (State.advance st))
            ~on_false:(fun st -> finish st (Errors.Error (Errors.Assert_failed msg))))
  | Instr.Call { dst; func; args } -> call cfg c ~callee:func ~args ~ret_reg:dst
  | Instr.Ret value -> (
    let value = Option.map (operand c) value in
    match c.callers with
    | caller :: callers -> (
      try return c ~caller ~callers value with Memory.Fault f -> on_state c (fun st -> fault st f))
    | [] -> on_state c (fun st -> thread_exit cfg st value))
  | Instr.Halt code ->
    let code = operand c code in
    on_state c (fun st ->
        let st, code = concretize cfg st code in
        finish st (Errors.Exit code))
  | Instr.Syscall { dst; num; args } ->
    let args = List.map (operand c) args in
    on_state c (fun st -> step_syscall cfg st ~dst ~num ~args)

(* --- the quantum ------------------------------------------------------------------------------------ *)

let quantum = 50

let preempt_due cfg c =
  match cfg.preempt_interval with
  | Some k -> c.since_sched >= k && List.length (State.runnable_tids c.base) > 1
  | None -> false

(* The loop behind every driver: retire instructions on the cursor until
   the quantum ends.  [max_steps] and preemption are checked before each
   instruction, as a per-instruction step would. *)
let step cfg ?(replay = false) ?(fuel = quantum) (st : 'env State.t) : 'env stepped =
  let path0 = st.State.path in
  let rec run c fuel =
    if fuel = 0 then continue (commit c)
    else
      match cfg.max_steps with
      | Some cap when c.steps >= cap -> finish (commit c) (Errors.Error Errors.Instruction_limit)
      | Some _ | None ->
        if preempt_due cfg c then rejoin (yield cfg (commit c)) fuel
        else begin
          let instr = c.code.(c.index) in
          retire cfg ~replay c instr.Instr.line;
          match exec cfg c instr with
          | None -> run c (fuel - 1)
          | Some r -> rejoin r (fuel - 1)
        end
  (* a committed instruction that neither forked nor terminated continues
     the quantum on a fresh cursor *)
  and rejoin r fuel =
    match r with
    | { running = [ st ]; finished = [] } when st.State.path == path0 && fuel > 0 -> run (cursor st) fuel
    | r -> r
  in
  run (cursor st) (max 1 fuel)
