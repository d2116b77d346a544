(* The symbolic executor: single-instruction stepping of execution states,
   forking at symbolic branches, scheduling decisions, and forking system
   calls.  This is the KLEE-analogue at the heart of each Cloud9 worker.

   Stepping is purely functional over {!State.t}: one step returns the set
   of successor states (one, or several on forks) plus any terminated
   states.  Every fork appends a {!Path.choice} to each successor's path,
   so a state's path uniquely addresses its node in the execution tree and
   serves as the transfer encoding for jobs. *)

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

let cover cfg (st : 'env State.t) line =
  if line_covered cfg line then st
  else begin
    let b = Char.code (Bytes.get cfg.coverage (line / 8)) in
    Bytes.set cfg.coverage (line / 8) (Char.chr (b lor (1 lsl (line mod 8))));
    cfg.stats.covered_lines <- cfg.stats.covered_lines + 1;
    { st with State.last_new_cover = st.State.steps }
  end

let coverage_count cfg = cfg.stats.covered_lines

(* Merge an external coverage bit vector (e.g. the load balancer's global
   view) into this engine's; returns the updated covered-line count. *)
let merge_coverage cfg vec =
  let n = min (Bytes.length vec) (Bytes.length cfg.coverage) in
  let count = ref 0 in
  for i = 0 to Bytes.length cfg.coverage - 1 do
    let b =
      if i < n then Char.code (Bytes.get cfg.coverage i) lor Char.code (Bytes.get vec i)
      else Char.code (Bytes.get cfg.coverage i)
    in
    Bytes.set cfg.coverage i (Char.chr b);
    let rec popcount x acc = if x = 0 then acc else popcount (x lsr 1) (acc + (x land 1)) in
    count := !count + popcount b 0
  done;
  cfg.stats.covered_lines <- !count;
  !count

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
let alloc_update cfg (st : 'env State.t) ~pid ~size =
  let mem =
    match cfg.global_alloc with
    | None -> st.State.mem
    | Some counter -> Memory.set_next_addr st.State.mem !counter
  in
  let mem, base = Memory.alloc mem ~pid ~size in
  (match cfg.global_alloc with
  | Some counter -> counter := max !counter (Memory.next_addr mem)
  | None -> ());
  ({ st with State.mem }, base)

(* --- function calls ------------------------------------------------------------------ *)

let enter_function cfg (st : 'env State.t) ~callee ~args ~ret_reg =
  let f = Program.func_exn st.State.program callee in
  let th = State.current st in
  let pid = th.State.pid in
  let st, frame_base =
    if f.Program.frame_size > 0 then alloc_update cfg st ~pid ~size:f.Program.frame_size
    else (st, 0)
  in
  let th = State.current st in
  let frame =
    State.make_frame f ~frame_base ~args ~ret_reg ~ret_block:th.State.block
      ~ret_index:(th.State.index + 1)
  in
  State.update_thread st
    { th with State.frames = frame :: th.State.frames; block = 0; index = 0 }

(* Return from the current function; [value] fills the caller's
   destination register.  Returns [None] if the thread finished. *)
let leave_function (st : 'env State.t) ~value =
  let th = State.current st in
  match th.State.frames with
  | [] -> invalid_arg "leave_function: no frames"
  | frame :: rest -> (
    let st =
      if frame.State.frame_base <> 0 then
        { st with State.mem = Memory.free st.State.mem ~pid:th.State.pid ~addr:frame.State.frame_base }
      else st
    in
    match rest with
    | [] ->
      (* thread finished *)
      let st = State.update_thread st { th with State.frames = []; status = State.Exited } in
      let st =
        match (th.State.tid, value) with
        | 0, Some _ -> st (* exit code recorded by the caller of [step] below *)
        | _ -> st
      in
      `Thread_exit st
    | caller :: _ ->
      let caller =
        match (frame.State.ret_reg, value) with
        | Some r, Some v -> { caller with State.regs = Imap.add r v caller.State.regs }
        | _, _ -> caller
      in
      let st =
        State.update_thread st
          {
            th with
            State.frames = caller :: List.tl rest;
            block = frame.State.ret_block;
            index = frame.State.ret_index;
          }
      in
      `Returned st)

(* --- branching --------------------------------------------------------------------------- *)

let truth_expr c =
  if E.width c = 1 then Smt.Simplify.simplify c
  else Smt.Simplify.simplify (E.ne c (E.const ~width:(E.width c) 0L))

(* Fork on a boolean condition.  Returns which sides are feasible; when
   both are, the two successors get Branch choices and the path condition
   is extended. *)
let fork_on cfg (st : 'env State.t) cond ~on_true ~on_false : 'env stepped =
  let b = truth_expr cond in
  if E.is_true b then on_true st ~forked:false
  else if E.is_false b then on_false st ~forked:false
  else begin
    (* one fused entry: shared simplify, interval boxes, and independence
       slice for both polarities *)
    let t_ok, f_ok =
      Smt.Solver.fork_feasible cfg.solver ~pc:st.State.pc ?boxes:st.State.boxes b
    in
    match (t_ok, f_ok) with
    | true, false -> on_true st ~forked:false
    | false, true -> on_false st ~forked:false
    | false, false -> finish st (Errors.Error (Errors.Invalid_op "infeasible path condition"))
    | true, true ->
      cfg.stats.forks <- cfg.stats.forks + 1;
      note_fork cfg st ~arms:2;
      let st_t = State.push_choice (State.add_constraint st b) (Path.Branch true) in
      let st_f = State.push_choice (State.add_constraint st (E.not_ b)) (Path.Branch false) in
      let r1 = on_true st_t ~forked:true in
      let r2 = on_false st_f ~forked:true in
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
          ~on_true:(fun st ~forked:_ ->
            k (State.add_constraint st (E.eq addr_e (c64 v))) v)
          ~on_false:(fun st ~forked:_ ->
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
    (match bytes with
    | Some data ->
      let mem =
        List.fold_left
          (fun (mem, i) () ->
            let byte = if i < String.length data then Char.code data.[i] else 0 in
            (Memory.store mem ~pid ~addr:(addr + i) (E.const ~width:8 (Int64.of_int byte)), i + 1))
          (st.State.mem, 0)
          (List.init (Int64.to_int len) (fun _ -> ()))
        |> fst
      in
      Sys_ret ({ st with State.mem }, E.const ~width:64 0L)
    | None ->
      let st, syms = State.fresh_input st ~name ~count:(Int64.to_int len) in
      let mem =
        List.fold_left
          (fun (mem, i) s -> (Memory.store mem ~pid ~addr:(addr + i) s, i + 1))
          (st.State.mem, 0) syms
        |> fst
      in
      Sys_ret ({ st with State.mem }, E.const ~width:64 0L))
  | _ -> Sys_err (st, Errors.Model_failure "make_symbolic expects (addr, len, name)")

let prim_thread_create cfg st args =
  match args with
  | [ fname_e; arg_e ] ->
    let st, fname_addr = concretize_addr cfg st fname_e in
    let fname = Memory.read_cstring st.State.mem ~pid:(State.current_pid st) ~addr:fname_addr in
    (match Program.func st.State.program fname with
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

let prim_process_fork (st : 'env State.t) =
  let th = State.current st in
  let child_pid = st.State.next_pid in
  let mem = Memory.clone_space st.State.mem ~parent:th.State.pid ~child:child_pid in
  let child_tid = st.State.next_tid in
  (* the child is a copy of the calling thread only, in the new space;
     it resumes after the fork call with return value 0 *)
  let child =
    { th with State.tid = child_tid; pid = child_pid; index = th.State.index + 1 }
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
  (* write 0 into the child's syscall destination register *)
  (st, child_tid, child_pid)

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

(* --- the step function ------------------------------------------------------------------------- *)

let record_instr cfg ~replay (st : 'env State.t) line =
  if replay then cfg.stats.replay_instrs <- cfg.stats.replay_instrs + 1
  else cfg.stats.useful_instrs <- cfg.stats.useful_instrs + 1;
  let st =
    { st with State.steps = st.State.steps + 1; since_sched = st.State.since_sched + 1 }
  in
  cover cfg st line

let rec step cfg ?(replay = false) (st : 'env State.t) : 'env stepped =
  match cfg.max_steps with
  | Some cap when st.State.steps >= cap -> finish st (Errors.Error Errors.Instruction_limit)
  | Some _ | None
    when (match cfg.preempt_interval with
         | Some k -> st.State.since_sched >= k && List.length (State.runnable_tids st) > 1
         | None -> false) ->
    (* instruction-level preemption point *)
    yield cfg st
  | Some _ | None -> (
    let instr = State.current_instr st in
    let st = record_instr cfg ~replay st instr.Instr.line in
    let ev = State.eval_operand st in
    try
      match instr.Instr.op with
      | Instr.Binop { dst; op; a; b } -> (
        let ea = ev a and eb = ev b in
        let compute st =
          let r = Smt.Simplify.simplify (E.binop op ea eb) in
          continue (State.advance (State.set_reg st dst r))
        in
        match op with
        | (E.Udiv | E.Urem | E.Sdiv | E.Srem) when cfg.check_div_zero ->
          let w = E.width eb in
          fork_on cfg st
            (E.ne eb (E.const ~width:w 0L))
            ~on_true:(fun st ~forked:_ -> compute st)
            ~on_false:(fun st ~forked:_ -> finish st (Errors.Error Errors.Division_by_zero))
        | _ -> compute st)
      | Instr.Unop { dst; op; a } ->
        let r = Smt.Simplify.simplify (E.unop op (ev a)) in
        continue (State.advance (State.set_reg st dst r))
      | Instr.Cast { dst; kind; a; width } ->
        let e = ev a in
        let r =
          match kind with
          | Instr.Zext -> E.zext e width
          | Instr.Sext -> E.sext e width
          | Instr.Trunc -> E.extract e ~off:0 ~len:width
        in
        continue (State.advance (State.set_reg st dst (Smt.Simplify.simplify r)))
      | Instr.Select { dst; cond; a; b } ->
        let c = truth_expr (ev cond) in
        let r = Smt.Simplify.simplify (E.ite c (ev a) (ev b)) in
        continue (State.advance (State.set_reg st dst r))
      | Instr.Mov { dst; a } -> continue (State.advance (State.set_reg st dst (ev a)))
      | Instr.Frame { dst; off } ->
        let th = State.current st in
        let base = (State.top_frame th).State.frame_base in
        if base = 0 then finish st (Errors.Error (Errors.Invalid_op "Frame in frameless function"))
        else
          continue
            (State.advance (State.set_reg st dst (E.const ~width:64 (Int64.of_int (base + off)))))
      | Instr.Load { dst; addr; len } ->
        resolve_access cfg st (ev addr) len ~k:(fun st a ->
            try
              let v = Memory.load st.State.mem ~pid:(State.current_pid st) ~addr:a ~len in
              continue (State.advance (State.set_reg st dst v))
            with Memory.Fault f ->
              finish st (Errors.Error (Errors.Memory_fault (Memory.fault_to_string f))))
      | Instr.Store { addr; value } ->
        let value = ev value in
        resolve_access cfg st (ev addr) (E.width value / 8) ~k:(fun st a ->
            try
              let mem = Memory.store st.State.mem ~pid:(State.current_pid st) ~addr:a value in
              continue (State.advance { st with State.mem })
            with Memory.Fault f ->
              finish st (Errors.Error (Errors.Memory_fault (Memory.fault_to_string f))))
      | Instr.Alloc { dst; size } ->
        let st, size = concretize cfg st (ev size) in
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
        end
      | Instr.Free { addr } -> (
        let st, a = concretize_addr cfg st (ev addr) in
        try continue (State.advance { st with State.mem = Memory.free st.State.mem ~pid:(State.current_pid st) ~addr:a })
        with Memory.Fault f ->
          finish st (Errors.Error (Errors.Memory_fault (Memory.fault_to_string f))))
      | Instr.Jmp l -> continue (State.goto st l)
      | Instr.Br { cond; then_; else_ } ->
        fork_on cfg st (ev cond)
          ~on_true:(fun st ~forked:_ -> continue (State.goto st then_))
          ~on_false:(fun st ~forked:_ -> continue (State.goto st else_))
      | Instr.Call { dst; func; args } ->
        continue (enter_function cfg st ~callee:func ~args:(List.map ev args) ~ret_reg:dst)
      | Instr.Ret value -> (
        let v = Option.map ev value in
        let th = State.current st in
        let is_main = th.State.tid = 0 && List.length th.State.frames = 1 in
        match leave_function st ~value:v with
        | `Returned st -> continue st
        | `Thread_exit st ->
          let st =
            if is_main then
              match v with
              | Some ve ->
                let st, code = concretize cfg st ve in
                { st with State.exit_code = code }
              | None -> st
            else st
          in
          yield cfg st)
      | Instr.Halt code ->
        let st, code = concretize cfg st (ev code) in
        finish st (Errors.Exit code)
      | Instr.Assert { cond; msg } ->
        fork_on cfg st (ev cond)
          ~on_true:(fun st ~forked:_ -> continue (State.advance st))
          ~on_false:(fun st ~forked:_ -> finish st (Errors.Error (Errors.Assert_failed msg)))
      | Instr.Syscall { dst; num; args } -> step_syscall cfg st ~dst ~num ~args:(List.map ev args)
    with
    | Stuck err -> finish st (Errors.Error err)
    | Memory.Fault f -> finish st (Errors.Error (Errors.Memory_fault (Memory.fault_to_string f))))

and step_syscall cfg (st : 'env State.t) ~dst ~num ~args : 'env stepped =
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
      cfg.stats.forks <- cfg.stats.forks + List.length variants - 1;
      if List.length variants > 1 then note_fork cfg st ~arms:(List.length variants);
      let stepped =
        List.mapi
          (fun i (st, v) ->
            let st = if List.length variants > 1 then State.push_choice st (Path.Sys i) else st in
            resume st v)
          variants
      in
      List.fold_left
        (fun acc r -> { running = acc.running @ r.running; finished = acc.finished @ r.finished })
        { running = []; finished = [] }
        stepped
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
    let st, child_tid, child_pid = prim_process_fork st in
    (* parent returns the child pid; patch the child's copy of the
       destination register to 0 *)
    let child = State.thread_exn st child_tid in
    let child =
      match child.State.frames with
      | f :: rest ->
        { child with State.frames = { f with State.regs = Imap.add dst (E.const ~width:64 0L) f.State.regs } :: rest }
      | [] -> child
    in
    let st = State.update_thread st child in
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
      let feasible =
        Smt.Solver.branch_feasible cfg.solver ~pc:st.State.pc ?boxes:st.State.boxes b
      in
      if feasible then reti (State.add_constraint st b) 0 else finish st Errors.Pruned
    | _ -> finish st (Errors.Error (Errors.Model_failure "assume expects (cond)"))
  end
  else finish st (Errors.Error (Errors.Model_failure (Printf.sprintf "unknown syscall %d" num)))
