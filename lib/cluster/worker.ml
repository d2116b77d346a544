(* A Cloud9 worker: an independent symbolic execution engine exploring one
   region of the global execution tree (paper section 3.2).

   The worker's local view is its exploration *frontier*: candidate nodes,
   each either *materialized* (program state in memory) or *virtual* (an
   empty shell encoded as its root path, received in a job transfer).
   Dead nodes are simply dropped — their state is never needed again — and
   *fence* nodes are kept as paths only, marking subtrees some other
   worker owns.  Choosing a virtual candidate triggers a lazy replay: the
   worker re-executes the path from the root; forks encountered along the
   way yield off-path siblings, which are fenced because they are being
   explored elsewhere (Fig. 3's node life cycle).

   Selection interleaves KLEE's random-path strategy (over the whole
   frontier, virtual nodes included) with the coverage-optimized weighted
   strategy (over materialized states), as in the paper's evaluation; a
   custom weight function can replace the coverage weights (used e.g. by
   the fewest-faults-first strategy of section 7.3.3). *)

module Path = Engine.Path
module Trie = Engine.Trie
module State = Engine.State
module Executor = Engine.Executor
module Errors = Engine.Errors
module Testcase = Engine.Testcase

type 'env entry = {
  epath : Path.t; (* root-first *)
  estate : 'env State.t option; (* None = virtual *)
  erecovery : bool; (* re-seeded by crash recovery (cost accounting) *)
}

type 'env mode =
  | Exploring
  | Replaying of {
      target : Path.t;
      remaining : Path.choice list;
      rstate : 'env State.t;
      recov : bool; (* replaying a recovery job *)
    }

type policy = Random_path_only | Interleaved

type 'env t = {
  id : int;
  cfg : 'env Executor.config;
  make_root : unit -> 'env State.t;
  frontier : 'env entry Trie.t;
  fence : unit Trie.t;
  banned : unit Trie.t;
  (* exact node paths owned by another worker: a crashed worker had sent
     them out after its last status report, so replaying its stale
     frontier digest would re-create them.  Consulted (and consumed) only
     when a fork produces the exact path; see DESIGN.md, "Failure
     semantics". *)
  rng : Random.State.t;
  policy : policy;
  weight : ('env State.t -> float) option;
  collect_tests : int;
  (* snapshot cache: recently seen states at fork points, so replays start
     from the deepest known ancestor instead of the root — the paper's
     "replayed from nodes on the frontier, instead of from the root"
     optimization (section 8, discussion of VeriSoft).  Sibling jobs in a
     transferred job tree share long prefixes, so each replay seeds the
     next one's start point. *)
  snapshots : (string, 'env State.t) Hashtbl.t;
  snap_queue : string Queue.t; (* FIFO eviction *)
  snap_limit : int;
  (* prefix pins: while a received batch has members outstanding, every
     on-path snapshot cached by a member's replay is pinned against FIFO
     eviction.  The first member's replay thus leaves the whole chain of
     its ancestors in the cache, and each later member restarts from its
     pairwise common prefix with the nearest already-replayed member —
     the batch replays the distinct edges of its spanning trie once,
     not k full root paths. *)
  pins : (string, int) Hashtbl.t; (* snapshot key -> pin refcount *)
  pin_of_target : (string, string) Hashtbl.t; (* member job key -> batch key *)
  batch_members : (string, int) Hashtbl.t; (* batch key -> outstanding members *)
  batch_keys : (string, string) Hashtbl.t; (* batch key -> pinned keys (multi-bound) *)
  (* received batch members not yet selected, in transfer order (tree
     adjacent): draining them consecutively replays each member from its
     neighbour's freshly pinned chain instead of scattering the replays
     across the run, when the pins are long gone *)
  mutable batch_fifo : Path.t list;
  mutable mode : 'env mode;
  mutable cov_turn : bool;
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
  prof : Obs.Profile.t option;
  mutable replay_t0 : int; (* wall-clock start of the replay in flight (profiling only) *)
}

let create ?(policy = Interleaved) ?weight ?(collect_tests = 0)
    ?(snap_limit = 512) ?prof ~id ~cfg ~make_root ~seed () =
  let w =
    {
      id;
      cfg;
      make_root;
      frontier = Trie.create ();
      fence = Trie.create ();
      banned = Trie.create ();
      rng = Random.State.make [| seed; id |];
      policy;
      weight;
      collect_tests;
      snapshots = Hashtbl.create 256;
      snap_queue = Queue.create ();
      snap_limit;
      pins = Hashtbl.create 16;
      pin_of_target = Hashtbl.create 64;
      batch_members = Hashtbl.create 16;
      batch_keys = Hashtbl.create 64;
      batch_fifo = [];
      mode = Exploring;
      cov_turn = false;
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
      prof;
      replay_t0 = 0;
    }
  in
  w

(* Trace through the engine config's sink, which the constructor already
   scoped to this worker's id; [None] = unobserved. *)
let emit w ev =
  match w.cfg.Executor.obs with None -> () | Some s -> Obs.Sink.event s ev

(* Seed the worker with the whole execution tree (the first worker's
   initial job, paper section 3.1). *)
let seed_root w =
  let root = w.make_root () in
  Trie.add w.frontier [] { epath = []; estate = Some root; erecovery = false }

let queue_length w = Trie.size w.frontier

let is_idle w = Trie.size w.frontier = 0 && w.mode = Exploring

(* --- selection ------------------------------------------------------------------ *)

let default_weight (st : 'env State.t) =
  1.0 /. float_of_int (1 + st.State.steps - st.State.last_new_cover)

(* Weighted random choice among materialized entries; None if the frontier
   has no materialized entry.  Candidates are summed and scanned in
   [Trie.iter_rev] order, the order of the list a [Trie.fold] consing
   them would build, with the total accumulated in that order; the
   float cells keep the sums unboxed. *)
let pick_weighted w =
  let weight = match w.weight with Some f -> f | None -> default_weight in
  let total = [| 0.0 |] and first = ref None in
  Trie.iter_rev
    (fun e ->
      match e.estate with
      | Some st ->
        if Option.is_none !first then first := Some e;
        total.(0) <- total.(0) +. weight st
      | None -> ())
    w.frontier;
  match !first with
  | None -> None
  | Some _ ->
    let target = Random.State.float w.rng total.(0) in
    let acc = [| 0.0 |] in
    let hit =
      Trie.find_rev
        (fun e ->
          match e.estate with
          | Some st ->
            let wt = weight st in
            let hit = acc.(0) +. wt >= target in
            if not hit then acc.(0) <- acc.(0) +. wt;
            hit
          | None -> false)
        w.frontier
    in
    (* rounding can leave the target past the last partial sum *)
    match hit with Some _ -> hit | None -> !first

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
    match Trie.find w.frontier p with
    | Some e when e.estate = None -> Some e
    | _ -> next_batch_member w)

let select w =
  match next_batch_member w with
  | Some e -> Some e
  | None -> (
    match w.policy with
    | Random_path_only -> Trie.random_pick w.rng w.frontier
    | Interleaved ->
      w.cov_turn <- not w.cov_turn;
      if w.cov_turn then
        match pick_weighted w with Some e -> Some e | None -> Trie.random_pick w.rng w.frontier
      else Trie.random_pick w.rng w.frontier)

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

(* Pin [key] on behalf of batch [pkey]: the snapshot survives FIFO
   eviction until the batch's last member lands. *)
let pin_key w pkey key =
  Hashtbl.replace w.pins key
    (match Hashtbl.find_opt w.pins key with Some n -> n + 1 | None -> 1);
  Hashtbl.add w.batch_keys pkey key

(* All members of batch [pkey] have landed: release every snapshot it
   pinned. *)
let release_batch w pkey =
  List.iter
    (fun key ->
      match Hashtbl.find_opt w.pins key with
      | Some n when n > 1 -> Hashtbl.replace w.pins key (n - 1)
      | Some _ -> Hashtbl.remove w.pins key
      | None -> ())
    (Hashtbl.find_all w.batch_keys pkey);
  while Hashtbl.mem w.batch_keys pkey do
    Hashtbl.remove w.batch_keys pkey
  done;
  Hashtbl.remove w.batch_members pkey

(* Remember a state at a fork point for future replays.  Eviction takes
   the oldest *unpinned* key: a pinned prefix snapshot rotates to the
   back of the queue instead, because batch members still outstanding
   replay from it.  [pin_for] pins the key on behalf of a batch (set
   when the replay in flight reconstructs a batch member). *)
let cache_snapshot ?pin_for w (st : 'env State.t) =
  let key = Path.to_string (State.path st) in
  (match pin_for with Some pkey -> pin_key w pkey key | None -> ());
  if not (Hashtbl.mem w.snapshots key) then begin
    Hashtbl.replace w.snapshots key st;
    Queue.add key w.snap_queue;
    if Queue.length w.snap_queue > w.snap_limit then begin
      let rec evict tries =
        if tries > 0 then begin
          let k = Queue.take w.snap_queue in
          if Hashtbl.mem w.pins k then begin
            Queue.add k w.snap_queue;
            evict (tries - 1)
          end
          else Hashtbl.remove w.snapshots k
        end
      in
      evict (Queue.length w.snap_queue)
    end
  end

(* A batch member is done (replay landed, broke, hit an exact snapshot,
   or the job left this worker again): drop its membership, and release
   the batch's pinned snapshots once no member is outstanding. *)
let unpin_target w (target : Path.t) =
  let tkey = Path.to_string target in
  match Hashtbl.find_opt w.pin_of_target tkey with
  | None -> ()
  | Some pkey -> (
    Hashtbl.remove w.pin_of_target tkey;
    match Hashtbl.find_opt w.batch_members pkey with
    | Some n when n > 1 -> Hashtbl.replace w.batch_members pkey (n - 1)
    | Some _ -> release_batch w pkey
    | None -> ())

(* Deepest cached ancestor of [target] (root-first path): returns the
   starting state plus the choices still to replay. *)
let replay_start w target =
  let arr = Array.of_list target in
  let n = Array.length arr in
  let rec probe k =
    if k <= 0 then (w.make_root (), target)
    else begin
      let prefix = Array.to_list (Array.sub arr 0 k) in
      match Hashtbl.find_opt w.snapshots (Path.to_string prefix) with
      | Some st -> (st, Array.to_list (Array.sub arr k (n - k)))
      | None -> probe (k - 1)
    end
  in
  probe n

let add_running w states =
  List.iter
    (fun (st : 'env State.t) ->
      let p = State.path st in
      cache_snapshot w st;
      emit w (Obs.Event.Candidate_added { depth = List.length p; virt = false });
      Trie.add w.frontier p { epath = p; estate = Some st; erecovery = false })
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

(* --- replay ---------------------------------------------------------------------------- *)

(* Recovery replays profile under their own span kind so the wall-clock
   cost of reconstructing a crashed worker's orphans is visible. *)
let replay_kind recov = if recov then Obs.Profile.Recovery_replay else Obs.Profile.Job_replay

(* Instructions retired so far, useful and replayed. *)
let retired w =
  let s = w.cfg.Executor.stats in
  s.Executor.useful_instrs + s.Executor.replay_instrs

(* One replay quantum: it stops at the first choice, so at most one is
   consumed.  Returns the instructions the quantum retired. *)
let replay_step w ~fuel ~target ~remaining ~rstate ~recov =
  let before = retired w in
  let { Executor.running; finished } = Executor.step w.cfg ~replay:true ~fuel rstate in
  let n = retired w - before in
  if recov then w.recovery_replay_instrs <- w.recovery_replay_instrs + n;
  let forked st = st.State.path != rstate.State.path in
  (match (running, remaining) with
  | [ st ], _ when not (forked st) ->
    (* deterministic step: stay on course *)
    w.mode <- Replaying { target; remaining; rstate = st; recov }
  | _ -> (
    (* a fork (or termination) happened; consume the next expected choice *)
    match remaining with
    | [] ->
      (* we are already at the target but the step forked: this means the
         target node was the fork point itself; materialize all successors
         as our own candidates (they are our subtree) *)
      add_running w (filter_banned w running);
      List.iter (record_finished w) finished;
      w.replays_done <- w.replays_done + 1;
      unpin_target w target;
      ignore (Obs.Profile.record w.prof (replay_kind recov) ~start_ns:w.replay_t0);
      emit w (Obs.Event.Replay_end { outcome = Obs.Event.Landed; recovery = recov });
      w.mode <- Exploring
    | expected :: rest -> (
      let matches (st : 'env State.t) =
        match st.State.path with c :: _ -> c = expected | [] -> false
      in
      (* off-path running siblings become fence nodes *)
      List.iter
        (fun st ->
          if not (matches st) then begin
            let p = State.path st in
            emit w (Obs.Event.Fence_created { depth = List.length p });
            Trie.add w.fence p ()
          end)
        running;
      (* off-path finished siblings were already completed by the source
         worker: fence them silently (no double counting) *)
      match List.find_opt matches running with
      | Some st ->
        cache_snapshot ?pin_for:(Hashtbl.find_opt w.pin_of_target (Path.to_string target)) w st;
        if rest = [] then begin
          (* arrived: the node is now materialized *)
          let p = State.path st in
          Trie.add w.frontier p { epath = p; estate = Some st; erecovery = false };
          w.replays_done <- w.replays_done + 1;
          unpin_target w target;
          ignore (Obs.Profile.record w.prof (replay_kind recov) ~start_ns:w.replay_t0);
          emit w (Obs.Event.Replay_end { outcome = Obs.Event.Landed; recovery = recov });
          w.mode <- Exploring
        end
        else w.mode <- Replaying { target; remaining = rest; rstate = st; recov }
      | None ->
        (* the expected successor does not exist: broken replay *)
        w.broken_replays <- w.broken_replays + 1;
        unpin_target w target;
        ignore (Obs.Profile.record w.prof (replay_kind recov) ~start_ns:w.replay_t0);
        emit w (Obs.Event.Replay_end { outcome = Obs.Event.Broken; recovery = recov });
        w.mode <- Exploring)));
  n

(* --- main execution loop ------------------------------------------------------------------ *)

(* One unit of work with at most [fuel] instructions: a replay quantum, or
   select a candidate and step it.  Returns the instructions retired (0
   when the selection only materialized a snapshot or started a replay),
   or [None] when the frontier is empty. *)
let work w ~fuel =
  match w.mode with
  | Replaying { target; remaining; rstate; recov } ->
    Some (replay_step w ~fuel ~target ~remaining ~rstate ~recov)
  | Exploring -> (
    match select w with
    | None -> None
    | Some entry -> (
      ignore (Trie.remove w.frontier entry.epath);
      match entry.estate with
      | None ->
        (* virtual node: lazy replay from the deepest cached ancestor *)
        if Hashtbl.mem w.snapshots (Path.to_string entry.epath) then begin
          (* exact snapshot: materialize without any replay *)
          let st = Hashtbl.find w.snapshots (Path.to_string entry.epath) in
          Trie.add w.frontier entry.epath { entry with estate = Some st };
          w.replays_done <- w.replays_done + 1;
          unpin_target w entry.epath;
          emit w
            (Obs.Event.Replay_end { outcome = Obs.Event.Snapshot_hit; recovery = entry.erecovery })
        end
        else begin
          w.replay_t0 <- Obs.Profile.start w.prof;
          emit w
            (Obs.Event.Replay_start { depth = List.length entry.epath; recovery = entry.erecovery });
          let rstate, remaining = replay_start w entry.epath in
          w.mode <- Replaying { target = entry.epath; remaining; rstate; recov = entry.erecovery }
        end;
        Some 0
      | Some st ->
        let before = retired w in
        let { Executor.running; finished } = Executor.step w.cfg ~fuel st in
        let n = retired w - before in
        List.iter (record_finished w) finished;
        (match running with
        | [ one ] when one.State.path == st.State.path -> add_running w running
        | _ -> add_running w (filter_banned w running));
        Some n))

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

(* A lexicographically contiguous run of [count] entries anchored on the
   deepest one.  Sorting by path puts tree-adjacent nodes next to each
   other, so a contiguous window maximizes the batch's common prefix —
   the whole point of prefix handoff — and anchoring on the deepest
   entry implements victim-side eager splitting: the victim gives away
   the deep half of its deque, a coherent subtree, rather than a random
   scatter with a near-empty shared prefix. *)
let cluster_pick entries count =
  let arr = Array.of_list entries in
  Array.sort (fun a b -> Path.compare a.epath b.epath) arr;
  let n = Array.length arr in
  if n <= count then Array.to_list arr
  else begin
    let anchor = ref 0 in
    Array.iteri
      (fun i e -> if List.length e.epath > List.length arr.(!anchor).epath then anchor := i)
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
  let give entry =
    ignore (Trie.remove w.frontier entry.epath);
    if entry.estate = None then unpin_target w entry.epath;
    emit w (Obs.Event.Fence_created { depth = List.length entry.epath });
    Trie.add w.fence entry.epath ();
    jobs := entry.epath :: !jobs;
    w.jobs_sent <- w.jobs_sent + 1
  in
  let virtuals =
    Trie.fold (fun e acc -> if e.estate = None then e :: acc else acc) w.frontier []
  in
  let nv = List.length virtuals in
  if nv >= count then List.iter give (cluster_pick virtuals count)
  else begin
    List.iter give virtuals;
    let materialized =
      Trie.fold (fun e acc -> if e.estate <> None then e :: acc else acc) w.frontier []
    in
    List.iter give (cluster_pick materialized (count - nv))
  end;
  !jobs

(* Import a job tree: each path becomes a virtual candidate node.
   [recovery] tags re-seeded orphans of a crashed worker, so the replay
   cost of reconstructing them is accounted separately. *)
let receive_jobs ?(recovery = false) w jobs =
  List.iter
    (fun p ->
      w.jobs_received <- w.jobs_received + 1;
      emit w (Obs.Event.Candidate_added { depth = List.length p; virt = true });
      Trie.add w.frontier p { epath = p; estate = None; erecovery = recovery })
    jobs

(* Import a factored batch: the members enter the frontier as full root
   paths (leases, digests and bans keep accounting in paths), and the
   shared prefix is pinned in the snapshot cache for as long as any
   member is outstanding.  The first member replayed caches the prefix
   state on its way through (every on-path fork state is cached), so
   the remaining members replay only their suffixes — O(depth + Σ|s_i|)
   for the whole batch instead of O(N·depth). *)
let receive_batch ?(recovery = false) w (b : Job.batch) =
  let jobs = Job.jobs_of_batch b in
  if List.length b.Job.suffixes > 1 then begin
    let pkey = Path.to_string b.Job.prefix in
    List.iter
      (fun p ->
        unpin_target w p (* a stale membership from an earlier batch, if any *);
        Hashtbl.replace w.pin_of_target (Path.to_string p) pkey;
        Hashtbl.replace w.batch_members pkey
          (match Hashtbl.find_opt w.batch_members pkey with Some n -> n + 1 | None -> 1))
      jobs;
    w.batch_fifo <- w.batch_fifo @ jobs
  end;
  receive_jobs ~recovery w jobs

(* --- introspection ------------------------------------------------------------------------------ *)

let frontier_paths w = Trie.fold (fun e acc -> e.epath :: acc) w.frontier []

(* What the worker reports to the load balancer as its recovery point:
   every candidate node, *including* a job mid-replay — it left the
   frontier when selected, but until the replay lands it is still
   unexplored work that only this digest records. *)
let digest_paths w =
  let f = frontier_paths w in
  match w.mode with Replaying { target; _ } -> target :: f | Exploring -> f

let fence_count w = Trie.size w.fence

let stats w =
  ( w.paths_completed,
    w.errors,
    w.cfg.Executor.stats.Executor.useful_instrs,
    w.cfg.Executor.stats.Executor.replay_instrs )
