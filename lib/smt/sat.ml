(* A CDCL SAT solver: two-watched-literal propagation, first-UIP conflict
   analysis, VSIDS-style activities with phase saving, and Luby restarts.

   The instance is persistent: [solve_with_assumptions] answers a query
   under a set of assumption literals (installed as pseudo-decisions at
   levels 1..n, MiniSat-style) and leaves the instance reusable — learned
   clauses, variable activities, saved phases and the watch stacks all
   survive to the next call, so closely related queries (the two polarities
   of a fork, successive queries along one path) share everything the
   earlier ones taught the solver.  Learnt clauses recorded while
   assumptions were in effect mention the assumption literals explicitly
   (first-UIP only drops level-0 literals), so retaining them is sound:
   every learnt clause is implied by the clause database alone.

   Learnt-clause deletion is age-based and runs at the root level between
   queries: when the live learnt set outgrows a limit, the oldest half is
   detached (binary and reason clauses are kept).  Within a single query
   learnt growth is negligible for our query mix; deletion only matters
   for long-lived incremental instances.

   Literal encoding: variable [v] (0-based) has positive literal [2*v] and
   negative literal [2*v+1].  [lit lxor 1] negates.

   The hot paths allocate nothing but learnt clauses: each literal's
   watches are an [int array] used as a stack, and conflict analysis works
   in per-instance scratch ([seen], [lbuf]) sized with the variables. *)

type lbool = Unassigned | True | False

type t = {
  mutable nvars : int;
  mutable clauses : int array array;  (* clause arena; first two lits watched *)
  mutable nclauses : int;
  mutable watches : int array array;  (* lit -> stack of clause indices watching it *)
  mutable nwatch : int array;         (* lit -> stack height *)
  mutable wscratch : int array;       (* [propagate]'s copy of the stack it scans *)
  mutable seen : bool array;          (* var -> in the clause [analyze] is building *)
  mutable lbuf : int array;           (* [analyze]: learnt literals below the conflict level,
                                         one slot per var *)
  mutable nlbuf : int;
  mutable assign : lbool array;       (* var -> value *)
  mutable level : int array;          (* var -> decision level *)
  mutable reason : int array;         (* var -> clause index or -1 *)
  mutable activity : float array;
  mutable phase : bool array;         (* saved polarity *)
  mutable heap : int array;           (* max-heap of vars by activity *)
  mutable heap_size : int;
  mutable heap_pos : int array;       (* var -> index in heap, or -1 *)
  mutable trail : int array;          (* assigned literals in order *)
  mutable trail_size : int;
  mutable trail_lim : int array;      (* decision-level boundaries *)
  mutable ntrail_lim : int;
  mutable qhead : int;
  mutable var_inc : float;
  mutable ok : bool;                  (* false once a top-level conflict exists *)
  mutable learnt_cis : int array;     (* live learnt clause indices, learning order *)
  mutable nlearnts : int;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learned : int;              (* learnt clauses ever recorded (incl. units) *)
  mutable deleted : int;              (* learnt clauses removed by DB reduction *)
  mutable mark : int array;           (* var -> relevance stamp *)
  mutable cmark : int array;          (* clause -> relevance stamp; -1 = always *)
  mutable mark_stamp : int;
  mutable use_marks : bool;           (* restrict decisions to marked vars *)
  mutable nmarked_open : int;         (* marked vars currently unassigned *)
}

let create () =
  {
    nvars = 0;
    clauses = Array.make 16 [||];
    nclauses = 0;
    watches = Array.make 32 [||];
    nwatch = Array.make 32 0;
    wscratch = Array.make 16 0;
    seen = Array.make 16 false;
    lbuf = Array.make 16 0;
    nlbuf = 0;
    assign = Array.make 16 Unassigned;
    level = Array.make 16 0;
    reason = Array.make 16 (-1);
    activity = Array.make 16 0.0;
    phase = Array.make 16 false;
    heap = Array.make 16 0;
    heap_size = 0;
    heap_pos = Array.make 16 (-1);
    trail = Array.make 16 0;
    trail_size = 0;
    trail_lim = Array.make 16 0;
    ntrail_lim = 0;
    qhead = 0;
    var_inc = 1.0;
    ok = true;
    learnt_cis = Array.make 16 0;
    nlearnts = 0;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    learned = 0;
    deleted = 0;
    mark = Array.make 16 0;
    cmark = Array.make 16 0;
    mark_stamp = 0;
    use_marks = false;
    nmarked_open = 0;
  }

let grow_array a n default =
  if Array.length a >= n then a
  else begin
    let a' = Array.make (max n (2 * Array.length a)) default in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

(* --- activity-ordered max-heap --------------------------------------- *)

let heap_less s v1 v2 = s.activity.(v1) > s.activity.(v2)

let heap_swap s i j =
  let vi = s.heap.(i) and vj = s.heap.(j) in
  s.heap.(i) <- vj;
  s.heap.(j) <- vi;
  s.heap_pos.(vj) <- i;
  s.heap_pos.(vi) <- j

let rec heap_up s i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if heap_less s s.heap.(i) s.heap.(parent) then begin
      heap_swap s i parent;
      heap_up s parent
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_size && heap_less s s.heap.(l) s.heap.(!best) then best := l;
  if r < s.heap_size && heap_less s s.heap.(r) s.heap.(!best) then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    s.heap <- grow_array s.heap (s.heap_size + 1) 0;
    s.heap.(s.heap_size) <- v;
    s.heap_pos.(v) <- s.heap_size;
    s.heap_size <- s.heap_size + 1;
    heap_up s (s.heap_size - 1)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_size <- s.heap_size - 1;
  s.heap_pos.(v) <- -1;
  if s.heap_size > 0 then begin
    s.heap.(0) <- s.heap.(s.heap_size);
    s.heap_pos.(s.heap.(0)) <- 0;
    heap_down s 0
  end;
  v

let heap_bump s v = if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

(* --- variables and values --------------------------------------------- *)

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  s.assign <- grow_array s.assign s.nvars Unassigned;
  s.level <- grow_array s.level s.nvars 0;
  s.reason <- grow_array s.reason s.nvars (-1);
  s.activity <- grow_array s.activity s.nvars 0.0;
  s.phase <- grow_array s.phase s.nvars false;
  s.heap_pos <- grow_array s.heap_pos s.nvars (-1);
  s.trail <- grow_array s.trail s.nvars 0;
  s.seen <- grow_array s.seen s.nvars false;
  s.lbuf <- grow_array s.lbuf s.nvars 0;
  s.watches <- grow_array s.watches (2 * s.nvars) [||];
  s.nwatch <- grow_array s.nwatch (2 * s.nvars) 0;
  if not s.use_marks then heap_insert s v;
  v

(* --- relevance marks ---------------------------------------------------

   A caller that knows which variables the current query can actually
   depend on (the transitive cone of the constraints being assumed, see
   {!Cnf}) may restrict branching to them: [begin_marks] opens a fresh
   mark generation, empties the branching heap and arms the restriction
   for the next [solve_with_assumptions]; [mark_var] adds one variable
   to the marks and the heap, and backtracking re-queues only marked
   ones.  The search then never *decides* an unmarked variable nor pops
   one (propagation may still assign them), and answers [Satisfiable]
   once every marked variable is assigned without conflict.  This is
   sound whenever the unmarked remainder of the instance is extendable — true by construction for
   bit-blasted circuitry: unmarked clauses are Tseitin gate definitions
   (evaluate bottom-up from any input assignment) or activation guards
   (satisfied by leaving the group's activation literal false). *)

let begin_marks s =
  s.mark <- grow_array s.mark (max 16 s.nvars) 0;
  s.cmark <- grow_array s.cmark (max 16 s.nclauses) 0;
  s.mark_stamp <- s.mark_stamp + 1;
  s.use_marks <- true;
  s.nmarked_open <- 0;
  for i = 0 to s.heap_size - 1 do s.heap_pos.(s.heap.(i)) <- -1 done;
  s.heap_size <- 0

(* [nmarked_open] counts marked variables not yet assigned, so the search
   can answer Satisfiable the instant the cone is fully assigned instead
   of draining the instance-wide branching heap past the mark filter.
   Marking may happen while the previous query's trail is still in place:
   variables it still holds assigned are neither counted nor queued here,
   and the [cancel_until 0] at the head of the next solve does both. *)
let mark_var s v =
  if s.mark.(v) <> s.mark_stamp then begin
    s.mark.(v) <- s.mark_stamp;
    if s.assign.(v) = Unassigned then begin
      s.nmarked_open <- s.nmarked_open + 1;
      heap_insert s v
    end
  end

let marked s v = v < Array.length s.mark && s.mark.(v) = s.mark_stamp

(* Clause-level relevance: callers stamp the clauses of the active cone;
   anything else is circuitry of switched-off groups and is skipped
   wholesale during above-root propagation (its clauses always contain an
   unmarked — hence unassigned — variable, so they can never become unit
   or conflicting).  Learnt clauses carry stamp -1: always relevant. *)
let mark_clause s ci = if s.cmark.(ci) >= 0 then s.cmark.(ci) <- s.mark_stamp
let clause_relevant s ci =
  let cm = s.cmark.(ci) in
  cm < 0 || cm = s.mark_stamp

let var_of_lit l = l lsr 1
let lit_sign l = l land 1 = 0 (* true when positive *)
let lit ~positive v = if positive then 2 * v else (2 * v) + 1

let lit_value s l =
  match s.assign.(var_of_lit l) with
  | Unassigned -> Unassigned
  | True -> if lit_sign l then True else False
  | False -> if lit_sign l then False else True

let value s v = match s.assign.(v) with True -> true | False | Unassigned -> false

let decision_level s = s.ntrail_lim

(* --- assignment / trail ------------------------------------------------ *)

let enqueue s l reason =
  let v = var_of_lit l in
  if s.use_marks && marked s v then s.nmarked_open <- s.nmarked_open - 1;
  s.assign.(v) <- (if lit_sign l then True else False);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  s.phase.(v) <- lit_sign l;
  s.trail.(s.trail_size) <- l;
  s.trail_size <- s.trail_size + 1

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = s.trail_lim.(lvl) in
    for i = s.trail_size - 1 downto bound do
      let v = var_of_lit s.trail.(i) in
      if s.use_marks && marked s v then s.nmarked_open <- s.nmarked_open + 1;
      s.assign.(v) <- Unassigned;
      s.reason.(v) <- -1;
      if (not s.use_marks) || marked s v then heap_insert s v
    done;
    s.trail_size <- bound;
    s.qhead <- bound;
    s.ntrail_lim <- lvl
  end

(* --- clauses ------------------------------------------------------------ *)

(* Watch stacks.  Literal [l]'s watches are [watches.(l).(0 .. nwatch.(l)-1)]
   with the top of the stack, the last slot, first in visiting order: a
   push is a cons onto a list read from the top down.  A stack starts as
   the shared empty array, then holds 2 and doubles when full: most
   literals of a bit-blasted instance watch a handful of clauses. *)
let watch s l ci =
  let n = s.nwatch.(l) in
  let w = s.watches.(l) in
  if n < Array.length w then w.(n) <- ci
  else begin
    let w' = Array.make (max 2 (2 * n)) 0 in
    Array.blit w 0 w' 0 n;
    w'.(n) <- ci;
    s.watches.(l) <- w'
  end;
  s.nwatch.(l) <- n + 1

let attach_clause s ci =
  let c = s.clauses.(ci) in
  watch s c.(0) ci;
  watch s c.(1) ci

let push_clause s c =
  if s.nclauses >= Array.length s.clauses then begin
    let a = Array.make (2 * Array.length s.clauses) [||] in
    Array.blit s.clauses 0 a 0 s.nclauses;
    s.clauses <- a
  end;
  s.cmark <- grow_array s.cmark (s.nclauses + 1) 0;
  s.cmark.(s.nclauses) <- 0;
  s.clauses.(s.nclauses) <- c;
  s.nclauses <- s.nclauses + 1;
  s.nclauses - 1

(* Drop [ci] from [l]'s stack, keeping the others in order. *)
let unwatch s l ci =
  let w = s.watches.(l) in
  let j = ref 0 in
  for i = 0 to s.nwatch.(l) - 1 do
    if w.(i) <> ci then begin
      w.(!j) <- w.(i);
      incr j
    end
  done;
  s.nwatch.(l) <- !j

let detach_clause s ci =
  let c = s.clauses.(ci) in
  unwatch s c.(0) ci;
  unwatch s c.(1) ci

(* A clause is locked while it is the reason of its asserting literal. *)
let locked s ci =
  let c = s.clauses.(ci) in
  let v = var_of_lit c.(0) in
  s.assign.(v) <> Unassigned && s.reason.(v) = ci

(* Age-based learnt-DB reduction, run at the root level between queries:
   detach the oldest half of the live learnt clauses, keeping binary and
   locked (reason) ones.  Detached slots are tombstoned in the arena —
   indices of surviving clauses never move, so reasons and watches of the
   kept clauses stay valid.  The survivors are compacted in place, in
   learning order. *)
let reduce_learnts s =
  let half = s.nlearnts / 2 in
  let nkept = ref 0 in
  for i = 0 to s.nlearnts - 1 do
    let ci = s.learnt_cis.(i) in
    if i >= half || Array.length s.clauses.(ci) <= 2 || locked s ci then begin
      s.learnt_cis.(!nkept) <- ci;
      incr nkept
    end
    else begin
      detach_clause s ci;
      s.clauses.(ci) <- [||];
      s.deleted <- s.deleted + 1
    end
  done;
  s.nlearnts <- !nkept

(* Reduce when the live learnt set outgrows the problem-clause count plus
   a fixed floor (the arena holds problem and learnt clauses together, so
   the problem count is the remainder). *)
let learnt_limit s = 2048 + ((s.nclauses - s.nlearnts) / 2)

let note_learnt s ci =
  s.learnt_cis <- grow_array s.learnt_cis (s.nlearnts + 1) 0;
  s.learnt_cis.(s.nlearnts) <- ci;
  s.nlearnts <- s.nlearnts + 1

(* Add a problem clause.  Clauses may be added between queries on a
   persistent instance: any leftover non-root assignment from the previous
   [solve] is undone first, so the literal filtering below only ever uses
   root-level (implied) facts.  The literals are insertion-sorted in place
   (problem clauses are short) and stored in ascending order; the array
   itself becomes the stored clause when nothing is dropped. *)
let add_clause s c =
  if decision_level s > 0 then cancel_until s 0;
  if s.ok then begin
    for i = 1 to Array.length c - 1 do
      let l = c.(i) and j = ref i in
      while !j > 0 && c.(!j - 1) > l do
        c.(!j) <- c.(!j - 1);
        decr j
      done;
      c.(!j) <- l
    done;
    (* Compact to the first [n] slots, dropping duplicates and false
       literals; -1 for a satisfied clause or a tautology (once sorted, a
       literal sits next to its negation). *)
    let rec keep i n =
      if i = Array.length c then n
      else if i > 0 && c.(i - 1) = c.(i) lxor 1 then -1
      else if i > 0 && c.(i - 1) = c.(i) then keep (i + 1) n
      else
        match lit_value s c.(i) with
        | True -> -1
        | False -> keep (i + 1) n
        | Unassigned ->
          c.(n) <- c.(i);
          keep (i + 1) (n + 1)
    in
    match keep 0 0 with
    | -1 -> ()
    | 0 -> s.ok <- false
    | 1 -> enqueue s c.(0) (-1)
    | n -> attach_clause s (push_clause s (if n = Array.length c then c else Array.sub c 0 n))
  end

(* --- propagation --------------------------------------------------------- *)

(* Propagate all enqueued assignments; returns the index of a conflicting
   clause, or -1 if no conflict.

   The false literal's stack is copied to [wscratch] and emptied, the copy
   is scanned from the top down, and every watch that stays is pushed back
   in scan order — so afterwards the stack holds the kept watches with the
   last one visited on top, exactly as consing them onto an emptied list
   would.  No push during the scan lands on the stack being scanned: a
   moved watch goes to a non-false literal. *)
let propagate s =
  let conflict = ref (-1) in
  while !conflict < 0 && s.qhead < s.trail_size do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let false_lit = p lxor 1 in
    let n = s.nwatch.(false_lit) in
    if Array.length s.wscratch < n then s.wscratch <- Array.make (2 * n) 0;
    let ws = s.wscratch and w = s.watches.(false_lit) in
    for i = 0 to n - 1 do
      ws.(i) <- w.(i)
    done;
    s.nwatch.(false_lit) <- 0;
    let skip_irrelevant = s.use_marks && s.ntrail_lim > 0 in
    let i = ref (n - 1) in
    while !i >= 0 do
      let ci = ws.(!i) in
      decr i;
      if skip_irrelevant && not (clause_relevant s ci) then
        (* Clause of a switched-off group: keep the watch as-is.  Only
           above the root level — root propagation must maintain every
           watch, since the root trail is never re-propagated and a
           clause left watching a root-false literal could otherwise go
           silent in a later query where it is relevant. *)
        watch s false_lit ci
      else begin
        let c = s.clauses.(ci) in
        (* ensure the false literal is at position 1 *)
        if c.(0) = false_lit then begin
          c.(0) <- c.(1);
          c.(1) <- false_lit
        end;
        if lit_value s c.(0) = True then
          (* clause satisfied: keep watching *)
          watch s false_lit ci
        else begin
          (* look for a new literal to watch *)
          let len = Array.length c in
          let k = ref 2 in
          while !k < len && lit_value s c.(!k) = False do
            incr k
          done;
          if !k < len then begin
            c.(1) <- c.(!k);
            c.(!k) <- false_lit;
            watch s c.(1) ci
          end
          else begin
            (* unit or conflicting *)
            watch s false_lit ci;
            if lit_value s c.(0) = False then begin
              (* conflict: restore the unscanned watches and stop *)
              while !i >= 0 do
                watch s false_lit ws.(!i);
                decr i
              done;
              s.qhead <- s.trail_size;
              conflict := ci
            end
            else if s.use_marks && not (marked s (var_of_lit c.(0))) then
              (* Unit implication of an irrelevant variable: skip the
                 assignment (the satisfying extension of the unmarked
                 remainder honors it), cutting the propagation cascade
                 into circuitry of switched-off groups.  No conflict can
                 be missed: unmarked variables then stay unassigned, so
                 no clause over them ever goes all-false. *)
              ()
            else enqueue s c.(0) ci
          end
        end
      end
    done
  done;
  !conflict

(* --- conflict analysis ---------------------------------------------------- *)

let var_decay = 0.95
let rescale_limit = 1e100

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > rescale_limit then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  heap_bump s v

let decay_activities s = s.var_inc <- s.var_inc /. var_decay

(* First-UIP learning.  Returns the asserting literal; the clause's other
   literals are left in [lbuf.(0 .. nlbuf-1)] in the order they were met,
   and the clause reads asserting literal first, then [lbuf] backwards.
   [seen] is clear on entry and on exit: resolved variables are cleared
   as they are resolved, the rest through [lbuf]. *)
let analyze s conflict_ci =
  let seen = s.seen in
  let counter = ref 0 in
  let p = ref (-1) in
  let ci = ref conflict_ci in
  let idx = ref (s.trail_size - 1) in
  s.nlbuf <- 0;
  while !p < 0 || !counter > 0 do
    let c = s.clauses.(!ci) in
    let start = if !p < 0 then 0 else 1 in
    for i = start to Array.length c - 1 do
      let q = c.(i) in
      let v = var_of_lit q in
      if (not seen.(v)) && s.level.(v) > 0 then begin
        seen.(v) <- true;
        bump_var s v;
        if s.level.(v) >= decision_level s then incr counter
        else begin
          s.lbuf.(s.nlbuf) <- q;
          s.nlbuf <- s.nlbuf + 1
        end
      end
    done;
    (* pick the next literal on the trail to resolve *)
    while not seen.(var_of_lit s.trail.(!idx)) do
      decr idx
    done;
    let q = s.trail.(!idx) in
    let v = var_of_lit q in
    p := q;
    seen.(v) <- false;
    decr counter;
    decr idx;
    if !counter > 0 then ci := s.reason.(v)
  done;
  for i = 0 to s.nlbuf - 1 do
    seen.(var_of_lit s.lbuf.(i)) <- false
  done;
  !p lxor 1

(* Backtrack level of the clause [analyze] just built: the highest level
   among its non-asserting literals, 0 for a unit. *)
let backtrack_level s =
  let lvl = ref 0 in
  for i = 0 to s.nlbuf - 1 do
    lvl := max !lvl s.level.(var_of_lit s.lbuf.(i))
  done;
  !lvl

(* --- search ----------------------------------------------------------------- *)

let luby y i =
  (* the Luby restart sequence *)
  let rec go sz seq i = if sz < i + 1 then go ((2 * sz) + 1) (seq + 1) (i mod sz) else (sz, seq, i)
  in
  let rec outer i =
    let sz, seq, i = go 1 0 i in
    if sz - 1 = i then y ** float_of_int seq else outer i
  in
  outer i

(* Pop until an unassigned variable surfaces.  Under marks the heap holds
   only the cone (see [begin_marks]). *)
let rec pick_branch_var s =
  if s.heap_size = 0 then -1
  else
    let v = heap_pop s in
    if s.assign.(v) <> Unassigned then pick_branch_var s else v

(* An unmarked solve branches anywhere: re-queue what marked solves left
   off the heap (a no-op on an instance that never saw marks). *)
let refill_heap s =
  for v = 0 to s.nvars - 1 do
    if s.heap_pos.(v) < 0 && s.assign.(v) = Unassigned then heap_insert s v
  done

type result = Satisfiable | Unsatisfiable

let record_learnt s asserting =
  s.learned <- s.learned + 1;
  let n = s.nlbuf + 1 in
  if n = 1 then enqueue s asserting (-1)
  else begin
    let c = Array.make n asserting in
    for i = 1 to n - 1 do
      c.(i) <- s.lbuf.(n - 1 - i)
    done;
    (* watch the asserting literal and a literal from the backtrack level *)
    let ci = push_clause s c in
    s.cmark.(ci) <- -1; (* learnt: relevant in every query *)
    note_learnt s ci;
    (* position 1 must hold a highest-level literal among the rest *)
    let best = ref 1 in
    for i = 2 to n - 1 do
      if s.level.(var_of_lit c.(i)) > s.level.(var_of_lit c.(!best)) then best := i
    done;
    let tmp = c.(1) in
    c.(1) <- c.(!best);
    c.(!best) <- tmp;
    attach_clause s ci;
    enqueue s asserting ci
  end

let push_level s =
  s.trail_lim <- grow_array s.trail_lim (s.ntrail_lim + 1) 0;
  s.trail_lim.(s.ntrail_lim) <- s.trail_size;
  s.ntrail_lim <- s.ntrail_lim + 1

(* The CDCL loop, parameterized by assumption literals.  Assumptions are
   installed in order as the first [n] decisions (a dummy level when one
   is already implied); when a pending assumption is found False, the
   clause database together with the earlier assumptions implies its
   negation and the query is unsatisfiable *under the assumptions* — the
   instance itself stays usable ([ok] is only cleared by a root-level
   conflict, which means the database is contradictory outright).
   Restarts cancel back to the assumption prefix, never behind it.  On
   [Satisfiable] the trail is left in place so the model can be read; the
   next call backtracks to the root first. *)
let solve_aux s assumps =
  if not s.ok then begin
    s.use_marks <- false;
    Unsatisfiable
  end
  else begin
    cancel_until s 0;
    if not s.use_marks then refill_heap s;
    if s.nlearnts > learnt_limit s then reduce_learnts s;
    let nassumps = Array.length assumps in
    let restart_base = 64.0 in
    let conflicts_until_restart = ref (restart_base *. luby 2.0 0) in
    let result = ref None in
    while !result = None do
      let conflict = propagate s in
      if conflict >= 0 then begin
        s.conflicts <- s.conflicts + 1;
        if decision_level s = 0 then begin
          s.ok <- false;
          result := Some Unsatisfiable
        end
        else begin
          let asserting = analyze s conflict in
          cancel_until s (backtrack_level s);
          record_learnt s asserting;
          decay_activities s;
          conflicts_until_restart := !conflicts_until_restart -. 1.0
        end
      end
      else if !conflicts_until_restart <= 0.0 && decision_level s > nassumps then begin
        s.restarts <- s.restarts + 1;
        conflicts_until_restart := restart_base *. luby 2.0 s.restarts;
        cancel_until s nassumps
      end
      else if decision_level s < nassumps then begin
        (* install the next assumption as a pseudo-decision *)
        let p = assumps.(decision_level s) in
        match lit_value s p with
        | True -> push_level s (* already implied: open an empty level *)
        | False -> result := Some Unsatisfiable (* unsat under assumptions *)
        | Unassigned ->
          push_level s;
          enqueue s p (-1)
      end
      else if s.use_marks && s.nmarked_open = 0 then
        (* every relevant variable is assigned without conflict; the
           unmarked remainder is extendable by construction *)
        result := Some Satisfiable
      else begin
        let v = pick_branch_var s in
        if v < 0 then result := Some Satisfiable
        else begin
          s.decisions <- s.decisions + 1;
          push_level s;
          enqueue s (lit ~positive:s.phase.(v) v) (-1)
        end
      end
    done;
    s.use_marks <- false;
    match !result with Some r -> r | None -> assert false
  end

let solve s =
  s.use_marks <- false;
  solve_aux s [||]
let solve_with_assumptions s assumps = solve_aux s (Array.of_list assumps)

let num_clauses s = s.nclauses
let clause s ci = Array.copy s.clauses.(ci)
let num_vars s = s.nvars
let is_ok s = s.ok

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learned : int;
  deleted : int;
}

let stats (s : t) =
  {
    conflicts = s.conflicts;
    decisions = s.decisions;
    propagations = s.propagations;
    restarts = s.restarts;
    learned = s.learned;
    deleted = s.deleted;
  }
