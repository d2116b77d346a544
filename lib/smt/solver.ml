(* Query orchestration on top of the bit blaster and SAT core.

   This mirrors the solver stack KLEE/Cloud9 sit on:
   - a canonicalizing simplifier pass,
   - constraint-independence slicing (only constraints transitively
     sharing symbols with the query are sent to the solver; a full
     [check] or [check_deterministic] is split into its independent
     components),
   - a satisfiability cache keyed on the canonical constraint set,
   - a counterexample (model) cache: recent models are probed by concrete
     evaluation before invoking the SAT solver.

   Expressions are hash-consed ({!Expr}), so the hot path is id
   arithmetic: cache keys hash by id, canonical ordering is id order,
   and symbol-support sets are memoized per term.

   The satisfiability and deterministic-model caches live in a
   {!Store}.  A solver starts with a private one; [Cluster.Parallel]
   attaches one sharded store to every worker domain's solver of a run,
   so a thief answers from what its victim already solved.  A key is a
   list of hash-consed terms, whose ids are process-global and never
   reused, so a key means the same thing in every domain; a det answer
   is a pure function of its key, so sharing it keeps models
   history-independent.  The counterexample models (history-dependent)
   and the persistent incremental instance stay per solver.

   Caches and slicing can each be disabled at construction for ablation
   benchmarks; SAT calls always go to the persistent incremental
   instance. *)

type result = Sat of Model.t | Unsat

type stats = {
  mutable queries : int;       (* total satisfiability questions asked *)
  mutable trivial : int;       (* answered by simplification alone *)
  mutable range_hits : int;    (* always 0: no interval tier; kept for bench/e2e *)
  mutable cache_hits : int;    (* answered by the satisfiability cache *)
  mutable cex_hits : int;      (* answered by probing a cached model *)
  mutable sat_calls : int;     (* full bit-blast + SAT runs *)
}

(* Counters of the incremental (persistent-instance) SAT path.
   [group_hits]/[group_misses] count per-constraint clause-group lookups
   across all assumption solves: a hit means the constraint was already
   blasted into the live instance and contributed zero new clauses to
   this query. *)
type inc_stats = {
  mutable assumption_solves : int; (* sat_calls answered on the persistent instance *)
  mutable group_hits : int;
  mutable group_misses : int;
  mutable retirements : int;       (* persistent instances discarded *)
}

(* Observability handles, resolved once at [create]: the per-tier query
   counters are plain mutable cells, so the instrumented hot path pays a
   single field write plus the trace append.  Cache/hashcons size gauges
   are refreshed every [gauge_period] answered queries, because counting
   the weak hashcons table is O(table). *)
type obs = {
  sink : Obs.Sink.t;
  tier_counters : (Obs.Event.solver_tier * Obs.Metrics.counter) list;
  c_inc_solves : Obs.Metrics.counter;
  c_inc_group_hits : Obs.Metrics.counter;
  c_inc_group_misses : Obs.Metrics.counter;
  g_sat_cache : Obs.Metrics.gauge;
  g_det_cache : Obs.Metrics.gauge;
  g_cex_models : Obs.Metrics.gauge;
  g_hc_entries : Obs.Metrics.gauge;
  g_hc_hits : Obs.Metrics.gauge;
  g_hc_misses : Obs.Metrics.gauge;
  g_inc_learned : Obs.Metrics.gauge;
  g_inc_groups : Obs.Metrics.gauge;
  mutable noted : int;
}

let gauge_period = 256

(* Answer caches keyed by the id-sorted constraints themselves, not their
   ids, so a cached constraint stays alive, and keeps its id, as long as
   its entry does. *)
module Key_hashed = struct
  type t = Expr.t list

  let equal = List.equal Expr.equal
  let hash = List.fold_left (fun h e -> (h * 65599) + Expr.hash e) 0
end

module Key = Hashtbl.Make (Key_hashed)

(* The two answer caches, sharded like the hashcons table: one mutex per
   shard guards both of its tables, and a lookup or insert holds it only
   for the table operation (answers are computed outside the lock; two
   domains racing on one cold key both solve it and store equal
   verdicts).  A private store has a single shard, which keeps a
   single-domain solver's lock cost that of one uncontended mutex.
   Tables start at [Hashtbl]'s minimum and grow with use: the simulated
   cluster and the campaign daemon create a solver per worker, most of
   which answer few queries. *)
module Store = struct
  type shard = { lock : Mutex.t; sat : result Key.t; det : result Key.t }
  type t = { shards : shard array; probe : Shard_lock.probe }

  let make nshards =
    {
      shards =
        Array.init nshards (fun _ ->
            { lock = Mutex.create (); sat = Key.create 16; det = Key.create 16 });
      probe = Shard_lock.probe ~nshards;
    }

  let create () = make Shard_lock.count
  let private_ () = make 1

  (* the key's shard, locked *)
  let lock t key =
    let i = Shard_lock.of_hash (Key_hashed.hash key) land (Array.length t.shards - 1) in
    let sh = t.shards.(i) in
    Shard_lock.acquire t.probe i sh.lock;
    sh

  let find t table key =
    let sh = lock t key in
    let r = Key.find_opt (table sh) key in
    Mutex.unlock sh.lock;
    r

  let add t table key r =
    let sh = lock t key in
    Key.replace (table sh) key r;
    Mutex.unlock sh.lock

  let sat sh = sh.sat
  let det sh = sh.det

  (* entries of one table, summed shard by shard under each lock *)
  let length t table =
    Array.fold_left
      (fun n sh ->
        Mutex.lock sh.lock;
        let n = n + Key.length (table sh) in
        Mutex.unlock sh.lock;
        n)
      0 t.shards

  let lock_stats t = Shard_lock.stats t.probe
end

type t = {
  stats : stats;
  inc_stats : inc_stats;
  obs : obs option;
  prof : Obs.Profile.t option;
  mutable q_t0 : int;  (* wall-clock start of the query in flight (profiling only) *)
  use_sat_cache : bool;
  use_cex_cache : bool;
  use_independence : bool;
  mutable inc : Cnf.ctx option;  (* the persistent incremental instance *)
  mutable store : Store.t;  (* sat and det answers, keyed by id-sorted constraints *)
  mutable cex_models : Model.t list;
  cex_limit : int;
}

let make_obs sink =
  let m = Obs.Sink.metrics sink in
  let tier_counters =
    List.map
      (fun tier ->
        (tier, Obs.Metrics.counter m ~labels:[ ("tier", Obs.Event.tier_to_string tier) ] "solver_queries"))
      Obs.Event.[ Trivial; Sat_cache; Cex_cache; Det_cache; Sat_call ]
  in
  {
    sink;
    tier_counters;
    c_inc_solves = Obs.Metrics.counter m "solver_inc_assumption_solves";
    c_inc_group_hits = Obs.Metrics.counter m "solver_inc_group_hits";
    c_inc_group_misses = Obs.Metrics.counter m "solver_inc_group_misses";
    g_sat_cache = Obs.Metrics.gauge m "solver_sat_cache_entries";
    g_det_cache = Obs.Metrics.gauge m "solver_det_cache_entries";
    g_cex_models = Obs.Metrics.gauge m "solver_cex_models";
    g_hc_entries = Obs.Metrics.gauge m "hashcons_entries";
    g_hc_hits = Obs.Metrics.gauge m "hashcons_hits";
    g_hc_misses = Obs.Metrics.gauge m "hashcons_misses";
    g_inc_learned = Obs.Metrics.gauge m "solver_inc_learned_clauses";
    g_inc_groups = Obs.Metrics.gauge m "solver_inc_clause_groups";
    noted = 0;
  }

(* Export-time samples for the hashcons shard-lock probe: its state is
   global Atomics in {!Expr}, owned by no registry, so it reaches the
   metrics dump as a sink provider (replace-by-name makes registration
   from every per-domain solver idempotent). *)
let hashcons_lock_samples () =
  let ls = Expr.lock_stats () in
  let acq outcome v =
    {
      Obs.Metrics.s_name = "hashcons_lock_acquisitions";
      s_labels = [ ("outcome", outcome) ];
      s_value = Obs.Metrics.Vcounter v;
    }
  in
  let wait =
    {
      Obs.Metrics.s_name = "latency_ns";
      s_labels = [ ("kind", "shard_lock_wait") ];
      s_value =
        Obs.Metrics.Vhistogram
          {
            vbounds = Array.copy Obs.Metrics.latency_ns_buckets;
            vcounts = Array.copy ls.Shard_lock.lk_wait_counts;
            vsum = float_of_int ls.Shard_lock.lk_wait_sum_ns;
            vcount = Array.fold_left ( + ) 0 ls.Shard_lock.lk_wait_counts;
          };
    }
  in
  let tops =
    List.map
      (fun (shard, c) ->
        {
          Obs.Metrics.s_name = "hashcons_shard_contended";
          s_labels = [ ("shard", string_of_int shard) ];
          s_value = Obs.Metrics.Vcounter c;
        })
      ls.Shard_lock.lk_top_shards
  in
  acq "uncontended" ls.Shard_lock.lk_uncontended
  :: acq "contended" ls.Shard_lock.lk_contended
  :: wait :: tops

let create ?(use_sat_cache = true) ?(use_cex_cache = true) ?(use_independence = true) ?obs
    ?prof () =
  Option.iter
    (fun sink -> Obs.Sink.set_provider sink ~name:"hashcons_locks" hashcons_lock_samples)
    obs;
  {
    stats =
      { queries = 0; trivial = 0; range_hits = 0; cache_hits = 0; cex_hits = 0; sat_calls = 0 };
    inc_stats = { assumption_solves = 0; group_hits = 0; group_misses = 0; retirements = 0 };
    obs = Option.map make_obs obs;
    prof;
    q_t0 = 0;
    use_sat_cache;
    use_cex_cache;
    use_independence;
    inc = None;
    store = Store.private_ ();
    cex_models = [];
    cex_limit = 32;
  }

let stats t = t.stats
let inc_stats t = t.inc_stats

let copy_inc_stats t =
  let s = t.inc_stats in
  {
    assumption_solves = s.assumption_solves;
    group_hits = s.group_hits;
    group_misses = s.group_misses;
    retirements = s.retirements;
  }

let inc_sat_stats t = Option.map Cnf.sat_stats t.inc

let copy_stats t =
  let s = t.stats in
  {
    queries = s.queries;
    trivial = s.trivial;
    range_hits = 0;
    cache_hits = s.cache_hits;
    cex_hits = s.cex_hits;
    sat_calls = s.sat_calls;
  }

let zero_stats () =
  { queries = 0; trivial = 0; range_hits = 0; cache_hits = 0; cex_hits = 0; sat_calls = 0 }

(* Accumulate [src] into [acc] (for per-worker aggregation). *)
let accum_stats acc src =
  acc.queries <- acc.queries + src.queries;
  acc.trivial <- acc.trivial + src.trivial;
  acc.cache_hits <- acc.cache_hits + src.cache_hits;
  acc.cex_hits <- acc.cex_hits + src.cex_hits;
  acc.sat_calls <- acc.sat_calls + src.sat_calls

(* The counters of [a] not yet counted in [b], an earlier copy. *)
let diff_stats a b =
  {
    queries = a.queries - b.queries;
    trivial = a.trivial - b.trivial;
    range_hits = 0;
    cache_hits = a.cache_hits - b.cache_hits;
    cex_hits = a.cex_hits - b.cex_hits;
    sat_calls = a.sat_calls - b.sat_calls;
  }

let sample_gauges t =
  match t.obs with
  | None -> ()
  | Some o ->
    Obs.Metrics.set o.g_sat_cache (float_of_int (Store.length t.store Store.sat));
    Obs.Metrics.set o.g_det_cache (float_of_int (Store.length t.store Store.det));
    Obs.Metrics.set o.g_cex_models (float_of_int (List.length t.cex_models));
    let hc = Expr.hashcons_stats () in
    Obs.Metrics.set o.g_hc_entries (float_of_int hc.Expr.table_size);
    Obs.Metrics.set o.g_hc_hits (float_of_int hc.Expr.hits);
    Obs.Metrics.set o.g_hc_misses (float_of_int hc.Expr.misses);
    (match t.inc with
    | Some ctx ->
      let st = Cnf.sat_stats ctx in
      Obs.Metrics.set o.g_inc_learned (float_of_int (st.Sat.learned - st.Sat.deleted));
      Obs.Metrics.set o.g_inc_groups (float_of_int (Cnf.num_groups ctx))
    | None ->
      Obs.Metrics.set o.g_inc_learned 0.0;
      Obs.Metrics.set o.g_inc_groups 0.0)

(* One query answered: bump the tier counter, close the query's
   wall-clock span (chaining [q_t0] to the stop timestamp, so fused fork
   queries attribute shared simplify/slice work to the first polarity
   and the second polarity's span starts where the first ended), and
   trace the outcome. *)
let note t kind tier sat =
  (match t.prof with
  | None -> ()
  | Some _ -> t.q_t0 <- Obs.Profile.record t.prof (Obs.Profile.Solver_query tier) ~start_ns:t.q_t0);
  match t.obs with
  | None -> ()
  | Some o ->
    (match List.assq_opt tier o.tier_counters with
    | Some c -> Obs.Metrics.incr c
    | None -> ());
    Obs.Sink.event o.sink (Obs.Event.Solver_query { kind; tier; sat });
    o.noted <- o.noted + 1;
    if o.noted mod gauge_period = 0 then sample_gauges t

let attach t store = t.store <- store

(* Drop the caches (used when measuring cache reconstruction after a job
   transfer, see paper section 6 "Constraint Caches") by moving to a
   fresh private store: an attached store is left intact for the other
   solvers sharing it.  Also retires the persistent incremental
   instance: a migrated state must never solve against the source
   worker's activation groups — the next SAT call rebuilds from an empty
   instance, exactly like the caches. *)
let clear_caches t =
  t.store <- Store.private_ ();
  t.cex_models <- [];
  match t.inc with
  | Some _ ->
    t.inc_stats.retirements <- t.inc_stats.retirements + 1;
    t.inc <- None
  | None -> ()

(* Normalize a constraint set: simplify, drop trivially-true constraints,
   and sort by hashcons id for a canonical in-process ordering.  Returns
   [None] when some constraint is trivially false. *)
let normalize constraints =
  let rec go acc = function
    | [] -> Some (List.sort_uniq Expr.compare acc)
    | c :: rest ->
      let c = Simplify.simplify c in
      if Expr.is_true c then go acc rest
      else if Expr.is_false c then None
      else go (c :: acc) rest
  in
  go [] constraints

(* Transitive closure of constraints connected to [seed] through shared
   symbols.  Symbol-support sets are memoized per term ({!Expr.sym_set}),
   so this walks no expression structure. *)
let slice ~seed constraints =
  let tagged = List.map (fun c -> (c, Expr.sym_set c)) constraints in
  let closure = ref seed in
  let selected = ref [] in
  let remaining = ref tagged in
  let changed = ref true in
  while !changed do
    changed := false;
    let rem, sel =
      List.partition (fun (_, syms) -> Expr.Iset.disjoint syms !closure) !remaining
    in
    if sel <> [] then begin
      changed := true;
      List.iter
        (fun (c, syms) ->
          selected := c :: !selected;
          closure := Expr.Iset.union syms !closure)
        sel;
      remaining := rem
    end
  done;
  !selected

(* One-shot solve on a fresh context: the deterministic-model path,
   which must not depend on query history, and the fallback for a
   corrupted incremental instance. *)
let solve_fresh constraints =
  let ctx = Cnf.create () in
  List.iter (Cnf.assert_expr ctx) constraints;
  match Cnf.solve ctx with
  | Sat.Unsatisfiable -> Unsat
  | Sat.Satisfiable ->
    let model =
      List.fold_left
        (fun m id ->
          match Cnf.sym_value ctx id with Some v -> Model.add id v m | None -> m)
        Model.empty (Cnf.sym_ids ctx)
    in
    (* The SAT model must satisfy the constraints; this is the solver's
       own soundness check (cheap: concrete evaluation). *)
    assert (Model.satisfies model constraints);
    Sat model

let syms_of cs =
  List.fold_left (fun acc c -> Expr.Iset.union acc (Expr.sym_set c)) Expr.Iset.empty cs

(* Retire the persistent instance when its clause arena outgrows this
   bound: a fresh instance re-blasts only the live path's constraints,
   shedding circuits (and tombstoned learnts) of long-dead branches. *)
let inc_clause_cap = 262_144

let inc_ctx t =
  match t.inc with
  | Some ctx when Cnf.num_clauses ctx < inc_clause_cap -> ctx
  | prev ->
    if prev <> None then t.inc_stats.retirements <- t.inc_stats.retirements + 1;
    let ctx = Cnf.create () in
    t.inc <- Some ctx;
    ctx

(* Assumption-based solve on the per-solver persistent instance: each
   constraint's clause group is blasted at most once per instance
   ([Cnf.activate], keyed on the term), the query is the conjunction
   of the groups' activation literals, and the CDCL core keeps learned
   clauses, activities and phases between calls — so the second polarity
   of a fork, and later queries sharing a pc prefix, start from
   everything the earlier solves established.  The model reads back only
   the symbols of the queried constraints (the instance knows many
   more). *)
let solve_incremental t constraints =
  let ctx = inc_ctx t in
  let hits = ref 0 and misses = ref 0 in
  List.iter
    (fun c ->
      let _, fresh = Cnf.activate ctx c in
      if fresh then incr misses else incr hits)
    constraints;
  t.inc_stats.assumption_solves <- t.inc_stats.assumption_solves + 1;
  t.inc_stats.group_hits <- t.inc_stats.group_hits + !hits;
  t.inc_stats.group_misses <- t.inc_stats.group_misses + !misses;
  (match t.obs with
  | Some o ->
    Obs.Metrics.incr o.c_inc_solves;
    Obs.Metrics.add o.c_inc_group_hits !hits;
    Obs.Metrics.add o.c_inc_group_misses !misses
  | None -> ());
  match Cnf.solve_activated ctx constraints with
  | Sat.Unsatisfiable ->
    if Cnf.is_ok ctx then Unsat
    else begin
      (* A root-level contradiction is impossible when every assertion is
         activation-guarded; treat it as instance corruption — retire and
         answer from a fresh context rather than risk a wrong Unsat. *)
      t.inc_stats.retirements <- t.inc_stats.retirements + 1;
      t.inc <- None;
      solve_fresh constraints
    end
  | Sat.Satisfiable ->
    let model =
      Expr.Iset.fold
        (fun id m ->
          match Cnf.sym_value ctx id with Some v -> Model.add id v m | None -> m)
        (syms_of constraints) Model.empty
    in
    (* Same soundness check as the fresh path. *)
    assert (Model.satisfies model constraints);
    Sat model

let is_sat = function Sat _ -> true | Unsat -> false

let remember_model t m =
  if t.use_cex_cache then begin
    let keep = List.filteri (fun i _ -> i < t.cex_limit - 1) t.cex_models in
    t.cex_models <- m :: keep
  end

(* Core satisfiability check with caching; constraints are already
   normalized (id-sorted) and non-empty.  [kind] labels the trace event
   with the querying entry point. *)
let check_normalized t ~kind constraints =
  let cached = if t.use_sat_cache then Store.find t.store Store.sat constraints else None in
  match cached with
  | Some r ->
    t.stats.cache_hits <- t.stats.cache_hits + 1;
    note t kind Obs.Event.Sat_cache (is_sat r);
    r
  | None ->
    let probe =
      if t.use_cex_cache then
        List.find_opt (fun m -> Model.satisfies m constraints) t.cex_models
      else None
    in
    let r =
      match probe with
      | Some m ->
        t.stats.cex_hits <- t.stats.cex_hits + 1;
        note t kind Obs.Event.Cex_cache true;
        Sat m
      | None ->
        t.stats.sat_calls <- t.stats.sat_calls + 1;
        let r = solve_incremental t constraints in
        note t kind Obs.Event.Sat_call (is_sat r);
        (match r with Sat m -> remember_model t m | Unsat -> ());
        r
    in
    if t.use_sat_cache then Store.add t.store Store.sat constraints r;
    r

(* The symbol-connected components of an id-sorted constraint list, each
   with its symbol set and its members in id order. *)
let components cs =
  List.fold_left
    (fun groups c ->
      let syms = Expr.sym_set c in
      let joined, apart =
        List.partition (fun (s, _) -> not (Expr.Iset.disjoint s syms)) groups
      in
      List.fold_left
        (fun (s, ms) (s', ms') -> (Expr.Iset.union s s', List.rev_append ms' ms))
        (syms, [ c ]) joined
      :: apart)
    [] cs
  |> List.rev_map (fun (s, ms) -> (s, List.sort Expr.compare ms))

(* The split/answer/merge loop shared by [check] and
   [check_deterministic], which differ only in [answer], the per-component
   answerer.  With independence on, each symbol-connected component of
   the normalized set is its own query, counted as one query in exactly
   one tier by [answer]; the first Unsat component answers the whole
   check.  Each component's model is restricted to the component's
   symbols (a cached model may bind others) before the models are
   merged, so the merged model binds only symbols of the normalized
   constraints (others are unconstrained and default to zero on
   evaluation). *)
let check_components t ~kind ~answer constraints =
  t.q_t0 <- Obs.Profile.start t.prof;
  let trivial sat =
    t.stats.queries <- t.stats.queries + 1;
    t.stats.trivial <- t.stats.trivial + 1;
    note t kind Obs.Event.Trivial sat
  in
  match normalize constraints with
  | None ->
    trivial false;
    Unsat
  | Some [] ->
    trivial true;
    Sat Model.empty
  | Some cs ->
    let parts = if t.use_independence then components cs else [ (syms_of cs, cs) ] in
    let rec go merged = function
      | [] ->
        assert (Model.satisfies merged cs);
        Sat merged
      | (syms, part) :: rest -> (
        t.stats.queries <- t.stats.queries + 1;
        match answer part with
        | Unsat -> Unsat
        | Sat m ->
          go
            (Expr.Iset.fold
               (fun id acc ->
                 match Model.get m id with Some v -> Model.add id v acc | None -> acc)
               syms merged)
            rest)
    in
    go Model.empty parts

(* Full check: is the conjunction of [constraints] satisfiable?  Each
   component goes through the caches and the incremental instance; a
   component usually equals the key of the branch query that created it,
   so it is a cache hit. *)
let check t constraints =
  check_components t ~kind:"check" ~answer:(check_normalized t ~kind:"check") constraints

(* Answer one fork polarity.  [cond] is already simplified and [sliced]
   is the subset of the (already-normalized) path condition relevant to
   it.  Bumps [queries] and exactly one tier, preserving the
   reconciliation invariant that tiers sum to queries. *)
let answer_polarity t ~kind ~sliced cond =
  t.stats.queries <- t.stats.queries + 1;
  if Expr.is_true cond then begin
    t.stats.trivial <- t.stats.trivial + 1;
    note t kind Obs.Event.Trivial true;
    true
  end
  else if Expr.is_false cond then begin
    t.stats.trivial <- t.stats.trivial + 1;
    note t kind Obs.Event.Trivial false;
    false
  end
  else
    let cs = List.sort_uniq Expr.compare (cond :: sliced) in
    match check_normalized t ~kind cs with Sat _ -> true | Unsat -> false

(* The constraints of [pc] relevant to a query over [syms]. *)
let slice_pc t ~pc cond syms =
  if t.use_independence && not (Expr.is_const cond) then slice ~seed:syms pc else pc

(* Branch-feasibility query: is [pc /\ cond] satisfiable?  [pc] is
   normalized (each member simplified, no trivially-true members, e.g.
   {!State.t}'s incrementally-maintained [pc]), so only [cond] is
   simplified here.  Independence slicing seeded by [cond]'s symbols is
   sound because [pc] alone is satisfiable by invariant (every state's
   path condition is feasible). *)
let branch_feasible t ~pc cond =
  t.q_t0 <- Obs.Profile.start t.prof;
  let cond = Simplify.simplify cond in
  let sliced = slice_pc t ~pc cond (Expr.sym_set cond) in
  answer_polarity t ~kind:"branch" ~sliced cond

(* Fused fork query: answers feasibility of both [cond] and [not cond]
   against the same normalized pc, sharing the simplified condition and
   the independence slice.  Seeding the slice with the union of both
   polarities' symbols is sound: a larger seed only enlarges the closure,
   and the excluded remainder stays disjoint from both queries (and is
   satisfiable because the pc is).  Each polarity counts as one query. *)
let fork_feasible t ~pc cond =
  t.q_t0 <- Obs.Profile.start t.prof;
  let cond_t = Simplify.simplify cond in
  let cond_f = Simplify.simplify (Expr.not_ cond_t) in
  let sliced =
    slice_pc t ~pc cond_t (Expr.Iset.union (Expr.sym_set cond_t) (Expr.sym_set cond_f))
  in
  let ok_t = answer_polarity t ~kind:"branch" ~sliced cond_t in
  let ok_f = answer_polarity t ~kind:"branch" ~sliced cond_f in
  (ok_t, ok_f)

(* Deterministic model construction: each component is solved from
   scratch, never through history-dependent caches (the counterexample
   cache returns whichever cached model happens to satisfy the query,
   which depends on query order, and the persistent instance's phases and
   activities depend on query history).  The constraints are handed to
   the SAT core in *structural* order: hashcons ids depend on interning
   history (and weak-table evictions), so id order is not reproducible
   across workers, but the structural order depends only on the
   constraint set itself.  A component's model is therefore a pure
   function of the component, and the merged model of the path condition
   is one too: two workers replaying the same path obtain the same model
   — the solver-side requirement for replay determinism (paper section 6,
   "Broken Replays").  Results are memoized per component in a dedicated
   cache whose entries are themselves deterministic, keyed like the
   satisfiability cache (a key miss just means a deterministic
   recompute); a new branch changes one component, so only that one is
   re-solved. *)
let solve_deterministic t part =
  match Store.find t.store Store.det part with
  | Some r ->
    t.stats.cache_hits <- t.stats.cache_hits + 1;
    note t "det" Obs.Event.Det_cache (is_sat r);
    r
  | None ->
    t.stats.sat_calls <- t.stats.sat_calls + 1;
    let r = solve_fresh (List.sort Expr.compare_structural part) in
    note t "det" Obs.Event.Sat_call (is_sat r);
    Store.add t.store Store.det part r;
    r

let check_deterministic t constraints =
  check_components t ~kind:"det" ~answer:(solve_deterministic t) constraints
