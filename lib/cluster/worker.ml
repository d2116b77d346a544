(* A Cloud9 worker: an independent symbolic execution engine exploring one
   region of the global execution tree (paper section 3.2).

   The worker's local view is its exploration *frontier*: candidate nodes,
   each either *materialized* (program state in memory) or *virtual* (an
   empty shell encoded as its root path, received in a job transfer).
   Dead nodes are simply dropped — their state is never needed again — and
   *fence* nodes, which mark subtrees some other worker owns, are only
   counted.  Choosing a virtual candidate triggers a lazy replay: the
   worker re-executes the path from the deepest cached ancestor; forks
   encountered along the way yield off-path siblings, which are fenced
   because they are being explored elsewhere (Fig. 3's node life cycle).

   The frontier is the engine's searcher core ({!Engine.Searcher.Core}),
   so a worker selects exactly as a single node does: the paper's
   interleaving of random-path (over the whole frontier, virtual nodes
   included) and coverage-optimized picks (over materialized states). *)

module Path = Engine.Path
module Trie = Engine.Trie
module State = Engine.State
module Core = Engine.Searcher.Core
module Executor = Engine.Executor
module Errors = Engine.Errors
module Testcase = Engine.Testcase

(* A state cached at a fork point, pinned against eviction while a
   received batch that replayed through it has members outstanding. *)
type 'env snap = { sstate : 'env State.t; spath : Path.t; mutable pins : int }

(* A received batch: its members still outstanding, and the snapshots
   their replays pinned. *)
type 'env batch = { mutable members : int; mutable pinned : 'env snap list }

(* The worker's tag on a virtual candidate. *)
type 'env job = {
  recovery : bool; (* re-seeded by crash recovery (cost accounting) *)
  batch : 'env batch option;
}

type 'env mode =
  | Exploring
  | Replaying of {
      target : Path.t;
      remaining : Path.choice list;
      rstate : 'env State.t;
      job : 'env job;
    }

type 'env t = {
  id : int;
  cfg : 'env Executor.config;
  make_root : unit -> 'env State.t;
  frontier : ('env, 'env job) Core.t;
  mutable fences : int;
  banned : unit Trie.t;
  (* exact node paths owned by another worker: a crashed worker had sent
     them out after its last status report, so replaying its stale
     frontier digest would re-create them.  Consulted (and consumed) only
     when a fork produces the exact path; see DESIGN.md, "Failure
     semantics". *)
  collect_tests : int;
  (* snapshot cache: states at fork points, so replays start from the
     deepest known ancestor instead of the root — the paper's "replayed
     from nodes on the frontier, instead of from the root" optimization
     (section 8, discussion of VeriSoft).  Sibling jobs in a transferred
     job tree share long prefixes, so each replay seeds the next one's
     start point. *)
  snapshots : 'env snap Trie.t;
  snap_queue : 'env snap Queue.t; (* FIFO eviction *)
  snap_limit : int;
  (* received batch members not yet selected, in transfer order (tree
     adjacent): draining them consecutively replays each member from its
     neighbour's freshly pinned chain instead of scattering the replays
     across the run, when the pins are long gone *)
  mutable batch_fifo : Path.t list;
  mutable mode : 'env mode;
  mutable paths_completed : int;
  mutable errors : int;
  mutable pruned : int;
  mutable tests : Testcase.t list;
  mutable ntests : int; (* List.length tests *)
  mutable broken_replays : int;
  mutable replays_done : int;
  mutable jobs_sent : int;
  mutable jobs_received : int;
  mutable banned_drops : int;
  mutable recovery_replay_instrs : int; (* replay cost of recovery jobs *)
  (* lease ids imported by this incarnation: receiver-side dedup of the
     at-least-once job wire, and (as a list) the cumulative ack each
     status report piggybacks *)
  leases : (int, unit) Hashtbl.t;
  mutable imported_leases : int list;
  prof : Obs.Profile.t option;
  mutable replay_t0 : int; (* wall-clock start of the replay in flight (profiling only) *)
}

let create ?(collect_tests = 0) ?(snap_limit = 512) ?prof ~id ~cfg ~make_root ~seed () =
  {
    id;
    cfg;
    make_root;
    frontier = Core.of_name ~rng:(Random.State.make [| seed; id |]) "default";
    fences = 0;
    banned = Trie.create ();
    collect_tests;
    snapshots = Trie.create ();
    snap_queue = Queue.create ();
    snap_limit;
    batch_fifo = [];
    mode = Exploring;
    paths_completed = 0;
    errors = 0;
    pruned = 0;
    tests = [];
    ntests = 0;
    broken_replays = 0;
    replays_done = 0;
    jobs_sent = 0;
    jobs_received = 0;
    banned_drops = 0;
    recovery_replay_instrs = 0;
    leases = Hashtbl.create 32;
    imported_leases = [];
    prof;
    replay_t0 = 0;
  }

(* Trace through the engine config's sink, which the constructor already
   scoped to this worker's id; [None] = unobserved. *)
let emit w ev =
  match w.cfg.Executor.obs with None -> () | Some s -> Obs.Sink.event s ev

(* Seed the worker with the whole execution tree (the first worker's
   initial job, paper section 3.1). *)
let seed_root w = Core.add w.frontier (w.make_root ())

let queue_length w = Core.size w.frontier

let is_idle w = Core.size w.frontier = 0 && w.mode = Exploring

(* --- selection ------------------------------------------------------------------ *)

(* Pending batch members drain first, in their transfer (tree-adjacent)
   order: each replay then restarts from the chain its neighbour's replay
   just pinned, so a batch walks every edge of its spanning trie once.
   Members that already left the frontier (re-stolen or materialized by
   an exact snapshot) are skipped. *)
let rec next_batch_member w =
  match w.batch_fifo with
  | [] -> None
  | p :: rest -> (
    w.batch_fifo <- rest;
    match Core.find w.frontier p with
    | Some (Core.Virtual _) -> Core.take w.frontier p
    | _ -> next_batch_member w)

let select w =
  match next_batch_member w with Some _ as c -> c | None -> Core.select w.frontier

(* --- terminations ----------------------------------------------------------------- *)

let record_finished w (st, term) =
  match term with
  | Errors.Pruned -> w.pruned <- w.pruned + 1
  | Errors.Exit _ | Errors.Error _ ->
    w.paths_completed <- w.paths_completed + 1;
    if Errors.is_error term then w.errors <- w.errors + 1;
    if w.ntests < w.collect_tests then begin
      match Testcase.of_state w.cfg.Executor.solver st term with
      | Some tc ->
        w.tests <- tc :: w.tests;
        w.ntests <- w.ntests + 1
      | None -> ()
    end

(* --- snapshot cache ------------------------------------------------------------------ *)

(* Drop the oldest *unpinned* snapshot: a pinned one rotates to the back
   of the queue instead, because batch members still outstanding replay
   from it. *)
let evict w =
  let rec go tries =
    if tries > 0 then begin
      let s = Queue.take w.snap_queue in
      if s.pins > 0 then begin
        Queue.add s w.snap_queue;
        go (tries - 1)
      end
      else ignore (Trie.remove w.snapshots s.spath)
    end
  in
  go (Queue.length w.snap_queue)

(* Remember state [st] at fork point [p] for future replays.  [batch] is
   the batch of the member being replayed, which pins the snapshot until
   its last member lands: the first member's replay thus leaves the whole
   chain of its ancestors in the cache, and each later member restarts
   from its pairwise common prefix with the nearest already-replayed
   member — the batch replays the distinct edges of its spanning trie
   once, not k full root paths. *)
let cache_snapshot ?batch w p st =
  let pin s =
    Option.iter
      (fun b ->
        s.pins <- s.pins + 1;
        b.pinned <- s :: b.pinned)
      batch
  in
  match Trie.find w.snapshots p with
  | Some s -> pin s
  | None ->
    let s = { sstate = st; spath = p; pins = 0 } in
    pin s;
    Trie.add w.snapshots p s;
    Queue.add s w.snap_queue;
    if Queue.length w.snap_queue > w.snap_limit then evict w

(* Drop what a paused worker can rebuild: every snapshot no outstanding
   batch member pins (a later replay restarts from an older ancestor or
   the root) and the solver caches.  The frontier's live states stay. *)
let shed w =
  for _ = 1 to Queue.length w.snap_queue do
    let s = Queue.take w.snap_queue in
    if s.pins > 0 then Queue.add s w.snap_queue else ignore (Trie.remove w.snapshots s.spath)
  done;
  Smt.Solver.clear_caches w.cfg.Executor.solver

(* A batch member is done (replay landed, broke, hit an exact snapshot,
   or the job left this worker again): release the batch's pinned
   snapshots once no member is outstanding. *)
let member_done job =
  match job.batch with
  | None -> ()
  | Some b ->
    b.members <- b.members - 1;
    if b.members = 0 then List.iter (fun s -> s.pins <- s.pins - 1) b.pinned

(* Fork products enter the frontier, each announced once and cached as a
   replay start. *)
let add_forks w states =
  List.iter
    (fun (st : 'env State.t) ->
      let p = State.path st in
      cache_snapshot w p st;
      emit w (Obs.Event.Candidate_added { depth = List.length p; virt = false });
      Core.add w.frontier st)
    states

(* Drop fork products whose exact node another worker owns (it received
   them from a worker that later crashed; we are re-exploring the crashed
   worker's stale digest).  Each ban fires at most once — the fork that
   re-creates the node is unique — so a hit consumes the entry. *)
let filter_banned w states =
  if Trie.size w.banned = 0 then states
  else
    List.filter
      (fun (st : 'env State.t) ->
        let p = State.path st in
        match Trie.find w.banned p with
        | None -> true
        | Some () ->
          ignore (Trie.remove w.banned p);
          w.banned_drops <- w.banned_drops + 1;
          false)
      states

let ban_paths w paths = List.iter (fun p -> Trie.add w.banned p ()) paths

let fence w depth =
  emit w (Obs.Event.Fence_created { depth });
  w.fences <- w.fences + 1

(* --- replay ---------------------------------------------------------------------------- *)

(* Recovery replays profile under their own span kind so the wall-clock
   cost of reconstructing a crashed worker's orphans is visible. *)
let replay_kind recov = if recov then Obs.Profile.Recovery_replay else Obs.Profile.Job_replay

(* Instructions retired so far, useful and replayed. *)
let retired w =
  let s = w.cfg.Executor.stats in
  s.Executor.useful_instrs + s.Executor.replay_instrs

let replay_end w job outcome =
  member_done job;
  ignore (Obs.Profile.record w.prof (replay_kind job.recovery) ~start_ns:w.replay_t0);
  emit w (Obs.Event.Replay_end { outcome; recovery = job.recovery });
  w.mode <- Exploring

(* One replay quantum: it stops at the first choice, so at most one is
   consumed.  Returns the instructions the quantum retired. *)
let replay_step w ~fuel ~target ~remaining ~rstate ~job =
  let before = retired w in
  let { Executor.running; finished } = Executor.step w.cfg ~replay:true ~fuel rstate in
  let n = retired w - before in
  if job.recovery then w.recovery_replay_instrs <- w.recovery_replay_instrs + n;
  let forked st = st.State.path != rstate.State.path in
  (match (running, remaining) with
  | [ st ], _ when not (forked st) ->
    (* deterministic step: stay on course *)
    w.mode <- Replaying { target; remaining; rstate = st; job }
  | _ -> (
    (* a fork (or termination) happened; consume the next expected choice *)
    match remaining with
    | [] ->
      (* we are already at the target but the step forked: this means the
         target node was the fork point itself; materialize all successors
         as our own candidates (they are our subtree) *)
      add_forks w (filter_banned w running);
      List.iter (record_finished w) finished;
      w.replays_done <- w.replays_done + 1;
      replay_end w job Obs.Event.Landed
    | expected :: rest -> (
      let matches (st : 'env State.t) =
        match st.State.path with c :: _ -> c = expected | [] -> false
      in
      (* off-path running siblings become fence nodes; off-path finished
         siblings were already completed by the source worker: fence them
         silently (no double counting) *)
      List.iter (fun st -> if not (matches st) then fence w (List.length st.State.path)) running;
      match List.find_opt matches running with
      | Some st ->
        cache_snapshot ?batch:job.batch w (State.path st) st;
        if rest = [] then begin
          (* arrived: the node is now materialized *)
          Core.add w.frontier st;
          w.replays_done <- w.replays_done + 1;
          replay_end w job Obs.Event.Landed
        end
        else w.mode <- Replaying { target; remaining = rest; rstate = st; job }
      | None ->
        (* the expected successor does not exist: broken replay *)
        w.broken_replays <- w.broken_replays + 1;
        replay_end w job Obs.Event.Broken)));
  n

(* --- main execution loop ------------------------------------------------------------------ *)

(* One unit of work with at most [fuel] instructions: a replay quantum, or
   select a candidate and step it.  Returns the instructions retired (0
   when the selection only materialized a snapshot or started a replay),
   or [None] when the frontier is empty. *)
let work w ~fuel =
  match w.mode with
  | Replaying { target; remaining; rstate; job } ->
    Some (replay_step w ~fuel ~target ~remaining ~rstate ~job)
  | Exploring -> (
    match select w with
    | None -> None
    | Some (Core.Virtual (p, job)) ->
      (* virtual node: lazy replay from the deepest cached ancestor *)
      (match Trie.deepest w.snapshots p with
      | Some (s, []) ->
        (* exact snapshot: materialize without any replay *)
        Core.add w.frontier s.sstate;
        w.replays_done <- w.replays_done + 1;
        member_done job;
        emit w (Obs.Event.Replay_end { outcome = Obs.Event.Snapshot_hit; recovery = job.recovery })
      | start ->
        w.replay_t0 <- Obs.Profile.start w.prof;
        emit w (Obs.Event.Replay_start { depth = List.length p; recovery = job.recovery });
        let rstate, remaining =
          match start with Some (s, rest) -> (s.sstate, rest) | None -> (w.make_root (), p)
        in
        w.mode <- Replaying { target = p; remaining; rstate; job });
      Some 0
    | Some (Core.Live st) ->
      let before = retired w in
      let { Executor.running; finished } = Executor.step w.cfg ~fuel st in
      let n = retired w - before in
      List.iter (record_finished w) finished;
      (match running with
      | [ one ] when one.State.path == st.State.path ->
        (* no fork: the state goes back into its slot *)
        Core.add w.frontier one
      | _ -> add_forks w (filter_banned w running));
      Some n)

(* Run up to [budget] instructions; returns the number actually executed.
   Returns early when the worker has nothing to do.  The last quantum gets
   only what is left of the budget, so the count is exact. *)
let execute w ~budget =
  let rec go used =
    if used >= budget then used
    else
      match work w ~fuel:(min Executor.quantum (budget - used)) with
      | None -> used
      | Some n -> go (used + n)
  in
  go 0

(* Run one full quantum of one state: a selection that only materializes
   or starts a replay does not count, so this returns 0 only when idle. *)
let rec run_quantum w =
  match work w ~fuel:Executor.quantum with
  | None -> 0
  | Some 0 -> run_quantum w
  | Some n -> n

(* --- job transfer --------------------------------------------------------------------------- *)

(* A lexicographically contiguous run of [count] paths anchored on the
   deepest one.  Sorting puts tree-adjacent nodes next to each other, so
   a contiguous window maximizes the batch's common prefix — the whole
   point of prefix handoff — and anchoring on the deepest node implements
   victim-side eager splitting: the victim gives away the deep half of
   its deque, a coherent subtree, rather than a random scatter with a
   near-empty shared prefix. *)
let cluster_pick paths count =
  let arr = Array.of_list paths in
  Array.sort Path.compare arr;
  let n = Array.length arr in
  if n <= count then Array.to_list arr
  else begin
    let anchor = ref 0 and deepest = ref (-1) in
    Array.iteri
      (fun i p ->
        let d = List.length p in
        if d > !deepest then begin
          anchor := i;
          deepest := d
        end)
      arr;
    let lo = min (max 0 (!anchor - (count / 2))) (n - count) in
    Array.to_list (Array.sub arr lo count)
  end

(* Package up to [count] candidate nodes for another worker; each becomes
   a fence node here (paper: "this conversion prevents redundant work").
   Virtual nodes are forwarded first: they carry no local progress, so
   giving them away wastes nothing.  Within each class the batch is a
   clustered window (see [cluster_pick]), not a random sample. *)
let transfer_out w ~count =
  let jobs = ref [] in
  let give p =
    (match Core.take w.frontier p with Some (Core.Virtual (_, job)) -> member_done job | _ -> ());
    fence w (List.length p);
    jobs := p :: !jobs;
    w.jobs_sent <- w.jobs_sent + 1
  in
  let virtuals = ref [] and nv = ref 0 and live = ref [] in
  Core.iter
    (fun p -> function
      | Core.Virtual _ ->
        virtuals := p :: !virtuals;
        incr nv
      | Core.Live _ -> live := p :: !live)
    w.frontier;
  if !nv >= count then List.iter give (cluster_pick !virtuals count)
  else begin
    List.iter give !virtuals;
    List.iter give (cluster_pick !live (count - !nv))
  end;
  !jobs

let add_jobs w job paths =
  List.iter
    (fun p ->
      w.jobs_received <- w.jobs_received + 1;
      emit w (Obs.Event.Candidate_added { depth = List.length p; virt = true });
      Core.add_virtual w.frontier p job)
    paths

(* Import a job tree: each path becomes a virtual candidate node.
   [recovery] tags re-seeded orphans of a crashed worker, so the replay
   cost of reconstructing them is accounted separately. *)
let receive_jobs ?(recovery = false) w jobs = add_jobs w { recovery; batch = None } jobs

(* Import a factored batch: the members enter the frontier as full root
   paths (leases, digests and bans keep accounting in paths), and every
   snapshot a member's replay caches stays pinned for as long as any
   member is outstanding.  The first member replayed caches the prefix
   state on its way through (every on-path fork state is cached), so
   the remaining members replay only their suffixes — O(depth + Σ|s_i|)
   for the whole batch instead of O(N·depth). *)
let receive_batch ?(recovery = false) w (b : Job.batch) =
  let jobs = Job.jobs_of_batch b in
  let batch =
    if List.length b.Job.suffixes > 1 then begin
      w.batch_fifo <- w.batch_fifo @ jobs;
      Some { members = List.length jobs; pinned = [] }
    end
    else None
  in
  add_jobs w { recovery; batch } jobs

(* The first delivery of a lease is imported, every later copy (a
   retransmission or a duplicate) only re-acknowledged.  A rejoined slot
   is a fresh worker with an empty table: the crash handed the dead
   incarnation's leases to recovery, so none of their ids comes back. *)
let accept_lease w ~lease =
  (not (Hashtbl.mem w.leases lease))
  && begin
       Hashtbl.replace w.leases lease ();
       w.imported_leases <- lease :: w.imported_leases;
       true
     end

(* --- introspection ------------------------------------------------------------------------------ *)

let frontier_paths w =
  let paths = ref [] in
  Core.iter (fun p _ -> paths := p :: !paths) w.frontier;
  !paths

(* What the worker reports to the load balancer as its recovery point:
   every candidate node, *including* a job mid-replay — it left the
   frontier when selected, but until the replay lands it is still
   unexplored work that only this digest records. *)
let digest_paths w =
  let f = frontier_paths w in
  match w.mode with Replaying { target; _ } -> target :: f | Exploring -> f

let fence_count w = w.fences

let stats w =
  ( w.paths_completed,
    w.errors,
    w.cfg.Executor.stats.Executor.useful_instrs,
    w.cfg.Executor.stats.Executor.replay_instrs )
