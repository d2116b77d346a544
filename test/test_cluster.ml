(* Tests for the cluster layer: completeness and disjointness of the
   dynamic tree partitioning (the union of all workers' explorations must
   equal exactly the single-node exploration), job transfer and lazy
   replay, the resumable driver (slices sum to a run), load balancing,
   and the trie/job-encoding utilities. *)

open Lang.Builder
module Path = Engine.Path

let sys_make_symbolic = 11

let mk_symbolic arr len name =
  expr (syscall sys_make_symbolic [ addr (idx (v arr) (n 0)); n len; str name ])

(* A parser-ish workload: classify 4 symbolic bytes into 3 classes each
   (3^4 = 81 paths) with some extra work per byte. *)
let workload =
  compile
    (cunit ~entry:"main"
       [
         fn "classify" [ ("c", u8) ] (Some u32)
           [
             if_ (v "c" <! chr 'a') [ ret (n 0) ] [];
             if_ (v "c" <=! chr 'z') [ ret (n 1) ] [];
             ret (n 2);
           ];
         fn "main" [] (Some u32)
           [
             decl_arr "x" u8 6;
             mk_symbolic "x" 6 "x";
             decl "acc" u32 (Some (n 0));
             for_range "i" ~from:(n 0) ~below:(n 6)
               [ set (v "acc") ((v "acc" *! n 3) +! call "classify" [ idx (v "x") (v "i") ]) ];
             halt (v "acc");
           ];
       ])

let reference_path_count =
  lazy
    (let rng = Random.State.make [| 3 |] in
     let searcher = Engine.Searcher.of_name ~rng "dfs" in
     let _cfg, result = Engine.Driver.run_pure ~searcher workload ~args:[] in
     assert (result.Engine.Driver.exhausted);
     result.Engine.Driver.paths_explored)

let make_worker ?(global_alloc = None) ?(collect_tests = 0) ?snap_limit ?obs program i =
  let solver = Smt.Solver.create () in
  let cfg =
    Engine.Executor.make_config ?obs ~solver ~handler:Engine.Executor.no_env_handler
      ~nlines:program.Cvm.Program.nlines ~global_alloc ()
  in
  let make_root () = Engine.State.init program ~env:() ~args:[] in
  Cluster.Worker.create ~id:i ~cfg ~make_root ~seed:1234 ~collect_tests ?snap_limit ()

let run_cluster ?(nworkers = 4) ?lb_disable_at ?(speed = 500) program =
  let cfg =
    {
      (Cluster.Driver.default_config ~nworkers ~make_worker:(make_worker program)
         ~coverable_lines:(List.length (Cvm.Program.covered_lines program))
         ())
      with
      Cluster.Driver.speed = (fun _ -> speed);
      status_interval = 5;
      lb_disable_at;
      max_ticks = 200_000;
    }
  in
  Cluster.Driver.run cfg

(* --- completeness and disjointness ------------------------------------------------ *)

let test_single_worker_exhausts () =
  let result = run_cluster ~nworkers:1 workload in
  Alcotest.(check bool) "reached goal" true result.Cluster.Driver.reached_goal;
  Alcotest.(check int) "same path count as single-node engine"
    (Lazy.force reference_path_count) result.Cluster.Driver.total_paths

let test_multi_worker_exhausts_exactly () =
  List.iter
    (fun nworkers ->
      let result = run_cluster ~nworkers workload in
      Alcotest.(check bool) (Printf.sprintf "%d workers reach goal" nworkers) true
        result.Cluster.Driver.reached_goal;
      (* completeness (no lost subtree) and disjointness (no duplicated
         subtree) together force exact equality *)
      Alcotest.(check int)
        (Printf.sprintf "%d workers: exact path count" nworkers)
        (Lazy.force reference_path_count) result.Cluster.Driver.total_paths;
      Alcotest.(check int)
        (Printf.sprintf "%d workers: no broken replays" nworkers)
        0 result.Cluster.Driver.broken_replays)
    [ 2; 4; 8 ]

let test_transfers_happen () =
  let result = run_cluster ~nworkers:4 workload in
  Alcotest.(check bool) "jobs were transferred" true (result.Cluster.Driver.transfers > 0)

let test_all_workers_contribute () =
  let result = run_cluster ~nworkers:4 workload in
  List.iter
    (fun (id, useful) ->
      Alcotest.(check bool) (Printf.sprintf "worker %d did useful work" id) true (useful > 0))
    result.Cluster.Driver.per_worker_useful

let test_more_workers_faster () =
  (* slow per-worker speed so parallelism matters *)
  let r1 = run_cluster ~nworkers:1 ~speed:200 workload in
  let r4 = run_cluster ~nworkers:4 ~speed:200 workload in
  Alcotest.(check bool)
    (Printf.sprintf "4 workers (%d ticks) beat 1 worker (%d ticks)" r4.Cluster.Driver.ticks
       r1.Cluster.Driver.ticks)
    true
    (r4.Cluster.Driver.ticks < r1.Cluster.Driver.ticks)

let test_lb_disable_hurts () =
  let on = run_cluster ~nworkers:8 ~speed:200 workload in
  let off = run_cluster ~nworkers:8 ~speed:200 ~lb_disable_at:1 workload in
  (* with balancing disabled immediately, only the seeded worker makes
     progress, so exhaustion takes much longer *)
  Alcotest.(check bool)
    (Printf.sprintf "LB off (%d ticks) slower than LB on (%d ticks)" off.Cluster.Driver.ticks
       on.Cluster.Driver.ticks)
    true
    (off.Cluster.Driver.ticks > on.Cluster.Driver.ticks)

(* --- worker-level mechanics ----------------------------------------------------------- *)

let test_worker_transfer_fences_source () =
  let w = make_worker workload 0 in
  Cluster.Worker.seed_root w;
  (* run a bit to grow the frontier *)
  ignore (Cluster.Worker.execute w ~budget:800);
  let before = Cluster.Worker.queue_length w in
  Alcotest.(check bool) "frontier grew" true (before > 2);
  let jobs = Cluster.Worker.transfer_out w ~count:2 in
  Alcotest.(check int) "two jobs out" 2 (List.length jobs);
  Alcotest.(check int) "frontier shrank" (before - 2) (Cluster.Worker.queue_length w);
  Alcotest.(check int) "fence nodes recorded" 2 (Cluster.Worker.fence_count w)

let test_worker_replays_virtual_jobs () =
  let src = make_worker workload 0 in
  Cluster.Worker.seed_root src;
  ignore (Cluster.Worker.execute src ~budget:800);
  let jobs = Cluster.Worker.transfer_out src ~count:3 in
  let dst = make_worker workload 1 in
  Cluster.Worker.receive_jobs dst jobs;
  Alcotest.(check int) "virtual nodes queued" 3 (Cluster.Worker.queue_length dst);
  (* let the destination run: it must replay and then explore *)
  let rec drain n = if n > 0 && not (Cluster.Worker.is_idle dst) then begin
      ignore (Cluster.Worker.execute dst ~budget:5000);
      drain (n - 1)
    end
  in
  drain 100;
  Alcotest.(check bool) "destination completed paths" true (dst.Cluster.Worker.paths_completed > 0);
  Alcotest.(check int) "replays finished" 3 dst.Cluster.Worker.replays_done;
  Alcotest.(check int) "no broken replays" 0 dst.Cluster.Worker.broken_replays;
  Alcotest.(check bool) "replay instructions accounted" true
    (dst.Cluster.Worker.cfg.Engine.Executor.stats.Engine.Executor.replay_instrs > 0)

(* Replays run executor quanta that stop at each choice, and a budget of
   7 cuts quanta short mid-replay: every job must still land, every
   [execute] must report exactly the instructions it retired, and the two
   workers together must explore the single-node tree. *)
let test_worker_replay_quanta () =
  let retired w =
    let s = w.Cluster.Worker.cfg.Engine.Executor.stats in
    s.Engine.Executor.useful_instrs + s.Engine.Executor.replay_instrs
  in
  let src = make_worker workload 0 in
  Cluster.Worker.seed_root src;
  ignore (Cluster.Worker.execute src ~budget:800);
  let jobs = Cluster.Worker.transfer_out src ~count:(Cluster.Worker.queue_length src) in
  let dst = make_worker workload 1 in
  Cluster.Worker.receive_jobs dst jobs;
  let exact = ref true in
  while not (Cluster.Worker.is_idle dst) do
    let before = retired dst in
    let used = Cluster.Worker.execute dst ~budget:7 in
    if used > 7 || used <> retired dst - before then exact := false
  done;
  Alcotest.(check int) "every job landed" (List.length jobs) dst.Cluster.Worker.replays_done;
  Alcotest.(check int) "no broken replays" 0 dst.Cluster.Worker.broken_replays;
  Alcotest.(check bool) "budgets exact" true !exact;
  Alcotest.(check int) "the two workers explore the whole tree" (Lazy.force reference_path_count)
    (src.Cluster.Worker.paths_completed + dst.Cluster.Worker.paths_completed)

let test_worker_caps_collected_tests () =
  let w = make_worker ~collect_tests:3 workload 0 in
  Cluster.Worker.seed_root w;
  let rec run n =
    if n > 0 && w.Cluster.Worker.paths_completed < 10 then begin
      ignore (Cluster.Worker.execute w ~budget:500);
      run (n - 1)
    end
  in
  run 1000;
  Alcotest.(check bool) "more paths than the cap" true (w.Cluster.Worker.paths_completed >= 10);
  Alcotest.(check int) "exactly collect_tests tests kept" 3 (List.length w.Cluster.Worker.tests);
  Alcotest.(check int) "counter matches" 3 w.Cluster.Worker.ntests

(* --- prefix handoff: properties at the worker level --------------------------------- *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let drain w =
  let rec go n =
    if n > 0 && not (Cluster.Worker.is_idle w) then begin
      ignore (Cluster.Worker.execute w ~budget:5000);
      go (n - 1)
    end
  in
  go 500

(* Full-path replay cost of [job] on a worker with a cold snapshot cache:
   the per-job baseline a factored batch must beat. *)
let replay_cost_alone job =
  let w = make_worker workload 99 in
  Cluster.Worker.receive_jobs w [ job ];
  let rec go n =
    if
      n > 0
      && w.Cluster.Worker.replays_done = 0
      && w.Cluster.Worker.broken_replays = 0
    then begin
      ignore (Cluster.Worker.execute w ~budget:5000);
      go (n - 1)
    end
  in
  go 100;
  w.Cluster.Worker.cfg.Engine.Executor.stats.Engine.Executor.replay_instrs

let gen_steal = QCheck2.Gen.(pair (int_range 600 2000) (int_range 2 5))

(* Steal a batch, ship it through the wire codec, replay it on a fresh
   thief: no node lost or duplicated, and the whole batch replays for at
   most the sum of independent full-path replays minus the shared prefix
   re-walked once per extra member — the analytic prefix+suffix bound
   (each avoided prefix walk costs at least one instruction per choice). *)
let prop_batch_replay_bound ?snap_limit name =
  QCheck2.Test.make ~count:8 ~name gen_steal (fun (budget, count) ->
      let src = make_worker workload 0 in
      Cluster.Worker.seed_root src;
      ignore (Cluster.Worker.execute src ~budget);
      let count = min count (Cluster.Worker.queue_length src - 1) in
      QCheck2.assume (count >= 2);
      let jobs = Cluster.Worker.transfer_out src ~count in
      let batch =
        match Cluster.Job.decode_batch (Cluster.Job.encode_batch (Cluster.Job.batch_of_jobs jobs)) with
        | Ok b -> b
        | Error e -> Alcotest.failf "batch codec roundtrip: %s" e
      in
      (* the wire form re-expands to exactly the stolen nodes, in order *)
      if Cluster.Job.jobs_of_batch batch <> jobs then
        Alcotest.fail "batch expansion lost or reordered nodes";
      let thief = make_worker ?snap_limit workload 1 in
      Cluster.Worker.receive_batch thief batch;
      drain thief;
      let k = List.length jobs in
      let batch_cost =
        thief.Cluster.Worker.cfg.Engine.Executor.stats.Engine.Executor.replay_instrs
      in
      let indep = List.fold_left (fun acc j -> acc + replay_cost_alone j) 0 jobs in
      thief.Cluster.Worker.broken_replays = 0
      && thief.Cluster.Worker.replays_done = k
      && batch_cost <= indep - ((k - 1) * List.length batch.Cluster.Job.prefix))

(* A batch imported with [~recovery:true] books every replay instruction
   as recovery cost — the classification the fault-tolerance differential
   audits (a fresh thief does no other replay, so the two counters must
   coincide exactly). *)
let prop_recovery_replay_accounted =
  QCheck2.Test.make ~count:6 ~name:"recovery batch books all replay as recovery" gen_steal
    (fun (budget, count) ->
      let src = make_worker workload 0 in
      Cluster.Worker.seed_root src;
      ignore (Cluster.Worker.execute src ~budget);
      let count = min count (Cluster.Worker.queue_length src - 1) in
      QCheck2.assume (count >= 1);
      let jobs = Cluster.Worker.transfer_out src ~count in
      let thief = make_worker workload 1 in
      Cluster.Worker.receive_batch ~recovery:true thief (Cluster.Job.batch_of_jobs jobs);
      drain thief;
      let replay =
        thief.Cluster.Worker.cfg.Engine.Executor.stats.Engine.Executor.replay_instrs
      in
      replay > 0
      && thief.Cluster.Worker.recovery_replay_instrs = replay
      && thief.Cluster.Worker.broken_replays = 0)

(* The timed-out steal take-back (parallel runtime: an Offer expires and
   the victim re-imports its own batch as recovery work): exploration
   totals stay exact, and the recovery cost stays within total replay. *)
let prop_takeback_roundtrip_exact =
  QCheck2.Test.make ~count:6 ~name:"steal/timeout/re-import round trip stays exact" gen_steal
    (fun (budget, count) ->
      let w = make_worker workload 0 in
      Cluster.Worker.seed_root w;
      ignore (Cluster.Worker.execute w ~budget);
      let count = min count (Cluster.Worker.queue_length w) in
      QCheck2.assume (count >= 1);
      let jobs = Cluster.Worker.transfer_out w ~count in
      Cluster.Worker.receive_jobs ~recovery:true w jobs;
      drain w;
      let stats = w.Cluster.Worker.cfg.Engine.Executor.stats in
      w.Cluster.Worker.paths_completed = Lazy.force reference_path_count
      && w.Cluster.Worker.errors = 0
      && w.Cluster.Worker.broken_replays = 0
      && w.Cluster.Worker.recovery_replay_instrs <= stats.Engine.Executor.replay_instrs)

(* --- resumable driver ------------------------------------------------------------------------ *)

let slice_config ?init_frontier ?(init_bans = []) () =
  {
    (Cluster.Driver.default_config ~nworkers:3 ~make_worker:(make_worker workload)
       ~coverable_lines:(List.length (Cvm.Program.covered_lines workload))
       ())
    with
    Cluster.Driver.speed = (fun _ -> 150);
    status_interval = 5;
    max_ticks = 200_000;
    init_frontier;
    init_bans;
  }

(* Slice budgets, each with whether the paused cluster is shed after it. *)
let gen_slices = QCheck2.Gen.(list_size (int_range 1 6) (pair (int_range 200 3000) bool))

(* One cluster advanced by random budgets (the daemon's warm campaign)
   reaches the totals of one uninterrupted run, and so does a new cluster
   started from any of its barriers' exports (a cold resume): every
   barrier's frontier holds exactly the unexplored rest. *)
let prop_driver_resume_exact =
  QCheck2.Test.make ~count:10 ~name:"advanced slices and cold resumes reach the run's totals"
    gen_slices (fun slices ->
      let full = Cluster.Driver.run (slice_config ()) in
      let d = Cluster.Driver.start (slice_config ()) in
      let rec go paths errors slices =
        let budget, shed = match slices with s :: _ -> s | [] -> (max_int, false) in
        let r = Cluster.Driver.advance d ~budget in
        let fx =
          match r.Cluster.Driver.export with
          | Some fx -> fx
          | None -> Alcotest.fail "a slice ended without a drained barrier"
        in
        let paths = paths + r.Cluster.Driver.total_paths in
        let errors = errors + r.Cluster.Driver.total_errors in
        if fx.Cluster.Driver.fx_jobs = [] then (paths, errors)
        else begin
          let cold =
            Cluster.Driver.run
              (slice_config ~init_frontier:fx.Cluster.Driver.fx_jobs
                 ~init_bans:fx.Cluster.Driver.fx_bans ())
          in
          if paths + cold.Cluster.Driver.total_paths <> full.Cluster.Driver.total_paths then
            Alcotest.failf "cold resume after %d paths reaches %d, not %d" paths
              (paths + cold.Cluster.Driver.total_paths) full.Cluster.Driver.total_paths;
          if shed then Cluster.Driver.shed d;
          go paths errors (match slices with _ :: rest -> rest | [] -> [])
        end
      in
      let paths, errors = go 0 0 slices in
      paths = full.Cluster.Driver.total_paths
      && errors = full.Cluster.Driver.total_errors
      && paths = Lazy.force reference_path_count)

(* --- balancer ---------------------------------------------------------------------------- *)

let test_balancer_classification () =
  let cov = Bytes.make 4 '\000' in
  let fresh reports =
    let lb = Cluster.Balancer.create ~coverage_bytes:4 () in
    List.iter
      (fun (worker, queue_len) ->
        ignore (Cluster.Balancer.report lb ~worker ~queue_len ~coverage:cov))
      reports;
    lb
  in
  (* a starved destination triggers eager splitting: half the source's
     deque in one batched steal *)
  let lb = fresh [ (0, 12); (1, 0) ] in
  (match Cluster.Balancer.rebalance lb with
  | [ { Cluster.Balancer.src = 0; dst = 1; count } ] ->
    Alcotest.(check int) "eager split for starved destination" 6 count
  | other -> Alcotest.failf "unexpected requests (%d)" (List.length other));
  (* a merely underloaded destination gets half the difference, capped at
     a quarter of the source's queue: min ((20-2)/2) (20/4) = 5 *)
  let lb = fresh [ (0, 20); (1, 2); (2, 11) ] in
  (match Cluster.Balancer.rebalance lb with
  | [ { Cluster.Balancer.src = 0; dst = 1; count } ] ->
    Alcotest.(check int) "capped transfer" 5 count
  | other -> Alcotest.failf "unexpected requests (%d)" (List.length other));
  (* the absolute per-steal cap: even an eager split of a huge queue
     moves at most a batch worth of subtrees *)
  let lb = fresh [ (0, 100); (1, 0) ] in
  (match Cluster.Balancer.rebalance lb with
  | [ { Cluster.Balancer.src = 0; dst = 1; count } ] ->
    Alcotest.(check int) "absolute batch cap" 8 count
  | other -> Alcotest.failf "unexpected requests (%d)" (List.length other));
  (* one rich source feeds every starved destination in a single round:
     initial work spread must not take O(nworkers) rebalance rounds *)
  let lb = fresh [ (0, 40); (1, 0); (2, 0); (3, 0) ] in
  let reqs = Cluster.Balancer.rebalance lb in
  Alcotest.(check int) "one request per starved worker" 3 (List.length reqs);
  List.iter
    (fun { Cluster.Balancer.src; dst; count } ->
      Alcotest.(check int) "rich source" 0 src;
      Alcotest.(check bool) "fed a starved worker" true (List.mem dst [ 1; 2; 3 ]);
      Alcotest.(check int) "full batch each" 8 count)
    reqs;
  (* the optimistic ledger converges over a few rounds without oscillating *)
  let lb = fresh [ (0, 100); (1, 10); (2, 55) ] in
  let rec settle n = if n > 0 && Cluster.Balancer.rebalance lb <> [] then settle (n - 1) in
  settle 10;
  Alcotest.(check int) "stable after settling" 0
    (List.length (Cluster.Balancer.rebalance lb))

(* Feeding only starved workers: a merely underloaded worker gets
   nothing, and the declined move is not charged to the optimistic
   ledger, so the source's full queue backs the next starved report. *)
let test_balancer_starved_only () =
  let cov = Bytes.make 4 '\000' in
  let lb = Cluster.Balancer.create ~starved_only:true ~coverage_bytes:4 () in
  List.iter
    (fun (worker, queue_len) ->
      ignore (Cluster.Balancer.report lb ~worker ~queue_len ~coverage:cov))
    [ (0, 20); (1, 2); (2, 11) ];
  Alcotest.(check int) "no move to a busy worker" 0 (List.length (Cluster.Balancer.rebalance lb));
  ignore (Cluster.Balancer.report lb ~worker:1 ~queue_len:0 ~coverage:cov);
  match Cluster.Balancer.rebalance lb with
  | [ { Cluster.Balancer.src = 0; dst = 1; count } ] ->
    Alcotest.(check int) "eager split of the uncharged queue" 8 count
  | other -> Alcotest.failf "unexpected requests (%d)" (List.length other)

let test_balancer_coverage_overlay () =
  let lb = Cluster.Balancer.create ~coverage_bytes:2 () in
  let c1 = Bytes.of_string "\x01\x00" in
  let c2 = Bytes.of_string "\x00\x81" in
  ignore (Cluster.Balancer.report lb ~worker:0 ~queue_len:1 ~coverage:c1);
  let merged = Cluster.Balancer.report lb ~worker:1 ~queue_len:1 ~coverage:c2 in
  Alcotest.(check string) "OR of vectors" "\x01\x81" (Bytes.to_string merged)

let test_balancer_disabled () =
  let lb = Cluster.Balancer.create ~coverage_bytes:1 () in
  let cov = Bytes.make 1 '\000' in
  ignore (Cluster.Balancer.report lb ~worker:0 ~queue_len:100 ~coverage:cov);
  ignore (Cluster.Balancer.report lb ~worker:1 ~queue_len:0 ~coverage:cov);
  Cluster.Balancer.disable lb;
  Alcotest.(check int) "no requests when disabled" 0 (List.length (Cluster.Balancer.rebalance lb))

(* --- job encoding --------------------------------------------------------------------------- *)

let test_job_tree_prefix_sharing () =
  let mk l = List.map (fun b -> Path.Branch b) l in
  let prefix = List.init 40 (fun i -> i mod 2 = 0) in
  let jobs =
    [
      mk (prefix @ [ true; true ]);
      mk (prefix @ [ true; false ]);
      mk (prefix @ [ false; true ]);
    ]
  in
  let naive = Cluster.Job.naive_encoded_size jobs in
  let tree = Cluster.Job.tree_encoded_size jobs in
  Alcotest.(check int) "naive counts every path byte" (3 * 43) naive;
  Alcotest.(check bool) (Printf.sprintf "tree (%d) < naive (%d)" tree naive) true (tree < naive)

(* A traced worker announces each node that enters its frontier once:
   fork products, not the write-back of a quantum that did not fork.
   Polling the frontier after every quantum sees every node that entered
   it, since a quantum selects before it adds; the seeded root is not
   announced. *)
let test_worker_announces_candidates_once () =
  let obs = Obs.Sink.create ~trace_capacity:100_000 () in
  let w = make_worker ~obs:(Obs.Sink.for_worker obs 0) workload 0 in
  Cluster.Worker.seed_root w;
  let seen = Hashtbl.create 1024 in
  let note () = List.iter (fun p -> Hashtbl.replace seen p ()) (Cluster.Worker.frontier_paths w) in
  note ();
  while Cluster.Worker.run_quantum w > 0 do
    note ()
  done;
  Alcotest.(check int) "explored the tree" (Lazy.force reference_path_count)
    w.Cluster.Worker.paths_completed;
  let trace = Obs.Sink.trace obs in
  Alcotest.(check int) "no trace record lost" 0 (Obs.Trace.dropped trace);
  let announced = ref 0 in
  Obs.Trace.iter
    (fun r ->
      match r.Obs.Trace.r_event with
      | Obs.Event.Candidate_added { virt = false; _ } -> incr announced
      | _ -> ())
    trace;
  Alcotest.(check int) "one candidate event per node" (Hashtbl.length seen - 1) !announced

(* The selection sequence of a seeded worker on a fixed frontier: grow a
   frontier of materialized states with differing coverage weights, then
   select from it repeatedly, writing each pick back as a quantum that
   did not fork would, without running anything.  Each pick is the index
   of its path among the frontier's sorted paths; a change in the
   interleaving, the random draws or the sum tree moves the sequence. *)
let test_worker_selection_sequence () =
  let w = make_worker workload 0 in
  Cluster.Worker.seed_root w;
  ignore (Cluster.Worker.execute w ~budget:3000);
  let paths = List.sort Path.compare (Cluster.Worker.frontier_paths w) in
  Alcotest.(check int) "frontier size" 181 (List.length paths);
  let index p =
    let rec go i = function
      | [] -> Alcotest.fail "selected a path outside the frontier"
      | q :: rest -> if Path.compare p q = 0 then i else go (i + 1) rest
    in
    go 0 paths
  in
  let picks =
    List.init 40 (fun _ ->
        match Cluster.Worker.select w with
        | Some (Engine.Searcher.Core.Live st) ->
          let i = index (Engine.State.path st) in
          Engine.Searcher.Core.add w.Cluster.Worker.frontier st;
          i
        | Some (Engine.Searcher.Core.Virtual _) -> Alcotest.fail "a virtual candidate on a seeded worker"
        | None -> Alcotest.fail "empty selection")
  in
  Alcotest.(check (list int)) "selection sequence"
    [ 103; 170; 72; 119; 124; 127; 143; 176; 171; 140; 166; 50; 0; 163; 10; 98; 38; 51; 58;
      113; 112; 162; 128; 56; 178; 64; 25; 93; 111; 123; 7; 94; 103; 41; 155; 173; 97; 9; 74;
      137 ]
    picks

(* --- trie ------------------------------------------------------------------------------------ *)

let test_trie_ops () =
  let t = Engine.Trie.create () in
  let p1 = [ Path.Branch true ] and p2 = [ Path.Branch true; Path.Branch false ] in
  Engine.Trie.add t p1 "a";
  Engine.Trie.add t p2 "b";
  Alcotest.(check int) "size 2" 2 (Engine.Trie.size t);
  Alcotest.(check (option string)) "find p2" (Some "b") (Engine.Trie.find t p2);
  Alcotest.(check bool) "remove p1" true (Engine.Trie.remove t p1);
  Alcotest.(check bool) "remove p1 again fails" false (Engine.Trie.remove t p1);
  Alcotest.(check int) "size 1" 1 (Engine.Trie.size t);
  (* the deepest stored prefix of a path, with the rest of the path *)
  let deepest p = Engine.Trie.deepest t p in
  Alcotest.(check bool) "deepest below b" true
    (deepest (p2 @ [ Path.Branch true ]) = Some ("b", [ Path.Branch true ]));
  Alcotest.(check bool) "deepest at b" true (deepest p2 = Some ("b", []));
  Alcotest.(check bool) "no stored prefix" true (deepest p1 = None);
  let rng = Random.State.make [| 1 |] in
  Alcotest.(check (option string)) "random pick finds b" (Some "b") (Engine.Trie.random_pick rng t)

let () =
  Alcotest.run "cluster"
    [
      ( "partitioning",
        [
          Alcotest.test_case "single worker exhausts" `Quick test_single_worker_exhausts;
          Alcotest.test_case "multi-worker exact" `Quick test_multi_worker_exhausts_exactly;
          Alcotest.test_case "transfers happen" `Quick test_transfers_happen;
          Alcotest.test_case "all workers contribute" `Quick test_all_workers_contribute;
        ] );
      ( "scalability",
        [
          Alcotest.test_case "more workers faster" `Quick test_more_workers_faster;
          Alcotest.test_case "LB disable hurts" `Quick test_lb_disable_hurts;
        ] );
      ( "worker",
        [
          Alcotest.test_case "transfer fences source" `Quick test_worker_transfer_fences_source;
          Alcotest.test_case "replay of virtual jobs" `Quick test_worker_replays_virtual_jobs;
          Alcotest.test_case "replay lands in quanta" `Quick test_worker_replay_quanta;
          Alcotest.test_case "collected tests capped" `Quick test_worker_caps_collected_tests;
          Alcotest.test_case "selection sequence" `Quick test_worker_selection_sequence;
          Alcotest.test_case "candidates announced once" `Quick
            test_worker_announces_candidates_once;
        ] );
      ( "prefix-handoff",
        qsuite
          [
            prop_batch_replay_bound "factored batch meets the prefix+suffix replay bound";
            (* a cache of one snapshot evicts at every insertion: only the
               batch's pins keep the shared prefix *)
            prop_batch_replay_bound ~snap_limit:1 "the bound holds when the cache evicts";
            prop_recovery_replay_accounted;
            prop_takeback_roundtrip_exact;
          ] );
      ("driver", qsuite [ prop_driver_resume_exact ]);
      ( "balancer",
        [
          Alcotest.test_case "classification" `Quick test_balancer_classification;
          Alcotest.test_case "coverage overlay" `Quick test_balancer_coverage_overlay;
          Alcotest.test_case "disabled" `Quick test_balancer_disabled;
          Alcotest.test_case "starved only" `Quick test_balancer_starved_only;
        ] );
      ("job-encoding", [ Alcotest.test_case "prefix sharing" `Quick test_job_tree_prefix_sharing ]);
      ( "trie",
        [
          Alcotest.test_case "basic operations" `Quick test_trie_ops;
        ] );
    ]
