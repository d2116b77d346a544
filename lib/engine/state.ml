(* An execution state: one node's worth of program state in the symbolic
   execution tree.

   Everything is persistent (maps, lists, and register arrays that are
   never written once they are in a state), so cloning a state at a fork
   is O(1) and two states never alias data either one mutates.  The
   state embeds:
   - the thread table (each thread: call stack, program counter, status),
     covering multiple processes — process ids select address spaces in
     {!Cvm.Memory} (paper section 4.2);
   - the path condition and the path (choice sequence) from the root,
     which doubles as the job encoding for transfers;
   - a deterministic per-state symbol counter, so a replayed path creates
     identically-named symbols;
   - an opaque ['env] slot holding the environment model's state (the
     POSIX model stores stream buffers, file descriptor tables, etc. here).

   The scheduler is cooperative (paper section 4.2): the current thread
   runs until it sleeps, preempts, or exits. *)

module Imap = Map.Make (Int)
module Instr = Cvm.Instr
module Program = Cvm.Program
module Memory = Cvm.Memory

type frame = {
  func : Program.func; (* operand-resolved: see [Program.resolved] *)
  regs : Smt.Expr.t array;
  (* [func.nregs] slots; never written once the frame is in a state, so
     writers copy first (the executor's cursor copies once per quantum) *)
  frame_base : int; (* 0 when the function has no frame object *)
  ret_reg : int option;
  ret_block : int;
  ret_index : int;
}

type tstatus = Runnable | Sleeping of int (* wait-list id *) | Exited

type thread = {
  tid : int;
  pid : int;
  frames : frame list; (* top of stack first; pc below refers to its head *)
  block : int;
  index : int;
  status : tstatus;
}

type sched_policy = Round_robin | Fork_all | Context_bound of int

type 'env t = {
  program : Program.t;
  globals : (string * int) list;
  mem : Memory.t;
  threads : thread Imap.t;
  cur : int; (* currently scheduled thread id *)
  next_tid : int;
  next_pid : int;
  next_wlist : int;
  next_sym : int;
  pc : Smt.Expr.t list;
  (* normalized path condition, newest first: each member simplified,
     trivially-true members dropped — maintained incrementally by
     [add_constraint] so branch queries never re-simplify the whole pc *)
  boxes : Smt.Range.boxes option;
  (* interval facts learned from [pc], also maintained incrementally
     (learning is a commutative meet, so one-at-a-time = from-scratch);
     [None] only if learning ever contradicted, which cannot happen while
     the pc stays satisfiable — treated as "recompute on demand" *)
  subst : (Smt.Expr.t * Smt.Expr.t) list;
  (* equalities implied by the pc ([e = const]); applied when reading
     operands so expressions stay small (KLEE-style constraint-based
     simplification — without it, loops guarded by pinned symbolic values
     grow expressions without bound) *)
  subst_syms : Smt.Expr.Iset.t; (* symbols of the [subst] left-hand sides *)
  path : Path.choice list; (* choices from the root, newest first *)
  sym_inputs : (string * int list) list; (* input name -> byte symbol ids, oldest first *)
  steps : int; (* instructions executed along this path *)
  since_sched : int; (* instructions since the last scheduling point *)
  preemptions : int; (* scheduling forks taken (context bounding) *)
  heap_limit : int option;
  sched : sched_policy;
  depth : int; (* fork depth = number of choices *)
  last_new_cover : int; (* [steps] when this path last covered a new line *)
  exit_code : int64; (* recorded by process termination; reported at exit *)
  env : 'env;
}

let path t = List.rev t.path

(* --- threads ------------------------------------------------------------- *)

let thread_exn t tid =
  match Imap.find_opt tid t.threads with
  | Some th -> th
  | None -> invalid_arg (Printf.sprintf "State: unknown thread %d" tid)

let current t = thread_exn t t.cur
let current_pid t = (current t).pid

let update_thread t th = { t with threads = Imap.add th.tid th t.threads }

let runnable_tids t =
  Imap.fold (fun tid th acc -> if th.status = Runnable then tid :: acc else acc) t.threads []
  |> List.rev

let live_threads t =
  Imap.fold (fun _ th acc -> if th.status <> Exited then acc + 1 else acc) t.threads 0

(* Wake every thread sleeping on [wl]; used by the engine's notify
   primitive and directly by environment models. *)
let wake_all t wl =
  {
    t with
    threads =
      Imap.map
        (fun th -> if th.status = Sleeping wl then { th with status = Runnable } else th)
        t.threads;
  }

let sleeping_on t wl =
  Imap.fold
    (fun tid th acc -> if th.status = Sleeping wl then tid :: acc else acc)
    t.threads []
  |> List.rev

(* --- registers of the current thread's top frame ---------------------------- *)

let top_frame th =
  match th.frames with
  | f :: _ -> f
  | [] -> invalid_arg "State: thread has no frames"

let set_reg t r e =
  let th = current t in
  match th.frames with
  | f :: rest ->
    let regs = Array.copy f.regs in
    regs.(r) <- e;
    update_thread t { th with frames = { f with regs } :: rest }
  | [] -> invalid_arg "State: thread has no frames"

(* --- program counter --------------------------------------------------------- *)

let advance t =
  let th = current t in
  update_thread t { th with index = th.index + 1 }

let goto t block = update_thread t { (current t) with block; index = 0 }

(* --- functions and operands ------------------------------------------------------ *)

let global_addr t name =
  match List.assoc_opt name t.globals with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "State: unknown global %s" name)

(* [init] resolved the program, so this is the cached copy *)
let func t name = List.assoc_opt name (Program.resolved t.program ~global_addr:(global_addr t))

let func_exn t name =
  match func t name with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "State: unknown function %s" name)

(* A term sharing no symbol with a left-hand side contains none of them. *)
let apply_subst t e =
  match t.subst with
  | [] -> e
  | pairs -> (
    match e.Smt.Expr.node with
    | Smt.Expr.Const _ -> e
    | _ ->
      if Smt.Expr.Iset.disjoint (Smt.Expr.sym_set e) t.subst_syms then e
      else Smt.Expr.substitute pairs e)

(* --- symbols ---------------------------------------------------------------------- *)

(* Create [count] fresh width-8 symbols with deterministic per-state ids
   and record them as a named input. *)
let fresh_input t ~name ~count =
  let syms =
    List.init count (fun i ->
        Smt.Expr.sym_with_id ~id:(t.next_sym + i) ~name:(Printf.sprintf "%s[%d]" name i) 8)
  in
  let t =
    {
      t with
      next_sym = t.next_sym + count;
      sym_inputs =
        t.sym_inputs
        @ [
            ( name,
              List.map
                (fun (s : Smt.Expr.t) ->
                  match s.node with Smt.Expr.Sym { id; _ } -> id | _ -> assert false)
                syms );
          ];
    }
  in
  (t, syms)

(* A fresh symbol not recorded as an input (scratch nondeterminism). *)
let fresh_sym t ~name ~width =
  let s = Smt.Expr.sym_with_id ~id:t.next_sym ~name width in
  ({ t with next_sym = t.next_sym + 1 }, s)

let add_constraint t e =
  let e = Smt.Simplify.simplify (apply_subst t e) in
  if Smt.Expr.is_true e then t
  else
    let t =
      match e.Smt.Expr.node with
      | Smt.Expr.Binop (Smt.Expr.Eq, lhs, ({ node = Smt.Expr.Const _; _ } as c))
        when not (Smt.Expr.is_const lhs) ->
        {
          t with
          subst = (lhs, c) :: t.subst;
          subst_syms = Smt.Expr.Iset.union (Smt.Expr.sym_set lhs) t.subst_syms;
        }
      | _ -> t
    in
    (* [e] is already simplified: extending the pc costs O(1), and the
       boxes absorb the new constraint with a single meet *)
    let boxes = match t.boxes with None -> None | Some bx -> Smt.Range.learn_boxes bx e in
    { t with pc = e :: t.pc; boxes }

let push_choice t c = { t with path = c :: t.path; depth = t.depth + 1 }

(* --- construction ------------------------------------------------------------------ *)

(* Uninitialized registers read as 64-bit zero. *)
let zero64 = Smt.Expr.const ~width:64 0L

let make_frame (func : Program.func) ~frame_base ~args ~ret_reg ~ret_block ~ret_index =
  let regs = Array.make func.Program.nregs zero64 in
  List.iteri (fun i a -> regs.(i) <- a) args;
  { func; regs; frame_base; ret_reg; ret_block; ret_index }

(* Initial state: globals allocated in process 0's space, one thread
   running the entry function with the given argument expressions. *)
let init program ~env ~args =
  let mem = Memory.empty in
  let mem, globals =
    List.fold_left
      (fun (mem, acc) g ->
        let mem, base =
          Memory.alloc_bytes ~writable:g.Program.gwritable mem ~pid:0 ~bytes:g.Program.bytes
        in
        (mem, (g.Program.gname, base) :: acc))
      (mem, []) program.Program.globals
  in
  let global_addr g = List.assoc g globals in
  let entry = List.assoc program.Program.entry (Program.resolved program ~global_addr) in
  if List.length args <> entry.Program.nparams then
    invalid_arg "State.init: wrong number of entry arguments";
  let mem, frame_base =
    if entry.Program.frame_size > 0 then Memory.alloc mem ~pid:0 ~size:entry.Program.frame_size
    else (mem, 0)
  in
  let frame = make_frame entry ~frame_base ~args ~ret_reg:None ~ret_block:0 ~ret_index:0 in
  let thread = { tid = 0; pid = 0; frames = [ frame ]; block = 0; index = 0; status = Runnable } in
  {
    program;
    globals;
    mem;
    threads = Imap.singleton 0 thread;
    cur = 0;
    next_tid = 1;
    next_pid = 1;
    next_wlist = 1;
    next_sym = 1;
    pc = [];
    boxes = Some Smt.Range.empty_boxes;
    subst = [];
    subst_syms = Smt.Expr.Iset.empty;
    path = [];
    sym_inputs = [];
    steps = 0;
    since_sched = 0;
    preemptions = 0;
    heap_limit = None;
    sched = Round_robin;
    depth = 0;
    last_new_cover = 0;
    exit_code = 0L;
    env;
  }

let map_env t f = { t with env = f t.env }
