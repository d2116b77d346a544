(* Cluster driver: a discrete-event simulation of a Cloud9 deployment.

   Substitution note (see DESIGN.md): the paper measures wall-clock time
   on an EC2 cluster; a single-machine reproduction cannot honestly run 48
   workers concurrently, so time is *virtual*.  Each simulated worker
   embeds a real engine instance exploring the real execution tree; in
   every tick a worker retires up to [speed] instructions (heterogeneous
   per worker if desired), messages carry a latency in ticks, and workers
   may join at different times.  Everything the paper measures — time to
   goal, useful (non-replay) instructions, states transferred per
   interval, the effect of disabling the balancer — is preserved.

   Failure semantics (paper sections 3.1-3.3, DESIGN.md "Failure
   semantics"): the [faults] plan may crash workers (optionally rejoining
   later with a fresh engine), drop / duplicate / delay messages, and
   partition links.  The data plane — job transfers, their acks, and
   transfer requests — is therefore at-least-once: every routed job batch
   is leased and retransmitted with exponential backoff until
   acknowledged; receivers deduplicate by lease id.  Status reports are
   the reliable control plane and double as each worker's durable
   recovery point.  The balancer, the lease ledger, the crash-recovery
   state machine and the fault plane — the crash/rejoin schedule, the
   seeded fates of the lossy {!Transport.wire}, and the stop rule for a
   cluster no worker can revive — live in the coordinator {!Transport},
   shared with the real-domain {!Parallel} runtime, and lease dedup in
   each {!Worker} ({!Worker.receive_lease}).  This driver supplies the
   virtual-time backend: latency-stamped delivery of the wire, the
   clock, worker arrivals at their [join_tick], a [begin_crash] that
   drops the simulated engine and filters undeliverable traffic, and a
   [rejoin] that spawns a fresh one.  A live worker that exhausts a
   lease's retransmit budget is evicted through the same crash path,
   which is what keeps re-routing from ever double-exploring a subtree.

   One tick nominally represents 10 ms of virtual time. *)

module Path = Engine.Path
module Executor = Engine.Executor

type message =
  | Jobs of {
      lease : int;
      src : int; (* a worker id, or Faultplan.lb for ledger (re)sends *)
      dst : int;
      encoded : string; (* Job.encode_batch form — prefix handoff codec *)
      recovery : bool;
    }
  | Transfer_request of { src : int; dst : int; count : int }
  | Ack of { lease : int; src : int }

type goal =
  | Exhaust                (* stop when the global tree is fully explored *)
  | Coverage_target of float
  | Time_limit             (* run until max_ticks *)

type 'env config = {
  nworkers : int;
  make_worker : int -> 'env Worker.t; (* builds worker [i] with its own engine *)
  join_tick : int -> int;   (* when worker [i] joins the cluster *)
  speed : int -> int;       (* instructions per tick for worker [i] *)
  status_interval : int;    (* ticks between status updates *)
  latency : int;            (* message latency in ticks *)
  lb_disable_at : int option;
  goal : goal;
  max_ticks : int;
  bucket_ticks : int;       (* stats bucket size (Fig. 12 uses 10 s) *)
  coverable_lines : int;    (* denominator for global coverage fraction *)
  faults : Faultplan.t;     (* crash / loss / partition schedule *)
  (* Campaign-service hook (see lib/service): a run may start from a
     checkpointed frontier instead of the root. *)
  init_frontier : Job.t list option; (* [Some jobs]: seed these, not the root *)
  init_bans : Job.t list;   (* checkpointed ban set to re-install *)
}

type bucket = {
  b_start_tick : int;
  mutable transferred : int; (* states moved between workers in this bucket *)
  mutable candidates : int;  (* candidate nodes, averaged over the bucket's ticks *)
  mutable cand_sum : int;    (* accumulator for the average *)
  mutable cand_samples : int;
  mutable useful : int;      (* cumulative useful instructions at bucket end *)
  mutable coverage : float;  (* global coverage fraction at bucket end *)
}

let fresh_bucket t =
  { b_start_tick = t; transferred = 0; candidates = 0; cand_sum = 0; cand_samples = 0; useful = 0; coverage = 0.0 }

(* Everything a campaign must persist to resume this run later and reach
   the exact totals of an uninterrupted one: the unexplored frontier as
   job-tree path encodings (each node exactly once, taken at a drained
   barrier), the cumulative ban set, and the union coverage bit vector. *)
type frontier_export = {
  fx_jobs : Job.t list;      (* every unexplored candidate, exactly once *)
  fx_bans : Job.t list;      (* cumulative ban set (crash recoveries) *)
  fx_coverage : Bytes.t;     (* union line bit vector of this run *)
}

(* One slice's result: every counter covers this slice only (for [run],
   the whole run), so a caller summing the slices of one cluster gets the
   totals of an uninterrupted run. *)
type result = {
  ticks : int;               (* virtual time consumed *)
  reached_goal : bool;
  total_paths : int;
  total_errors : int;
  useful_instrs : int;
  replay_instrs : int;
  broken_replays : int;
  transfers : int;           (* total states transferred *)
  buckets : bucket list;     (* oldest first *)
  per_worker_useful : (int * int) list; (* worker id -> useful instructions *)
  final_coverage : float;
  crashes : int;             (* crash-plan victims plus lease evictions *)
  recovered_jobs : int;      (* orphaned jobs re-seeded from ledger copies *)
  retransmits : int;         (* job batches resent after an ack timeout *)
  recovery_replay_instrs : int; (* replay cost of reconstructing orphans *)
  solver_stats : Smt.Solver.stats; (* cluster-wide aggregate, dead workers included *)
  per_worker_solver : (int * Smt.Solver.stats) list; (* live workers at slice end *)
  export : frontier_export option;
      (* present iff the slice stopped at a drained barrier (budget
         preemption or natural exhaustion); a [max_ticks] bailout
         mid-flight yields [None] *)
}

(* A started cluster between slices.  [advance] closes over the whole
   simulation state built by [start]: workers, wire, transport and
   virtual clock all persist from one slice to the next. *)
type 'env t = {
  workers : 'env Worker.t option array;
  advance : int -> result;
}

let start ?obs (cfg : 'env config) =
  let workers : 'env Worker.t option array = Array.make cfg.nworkers None in
  let departed = Array.make cfg.nworkers false in (* crashed; blocks re-arrival *)
  (* the last join: before it, a cluster with no live worker may revive *)
  let last_join = Seq.fold_left max 0 (Seq.init cfg.nworkers cfg.join_tick) in
  (* observability plumbing.  The driver owns virtual time: it advances
     the sink's clock once per tick and takes one cumulative timeline
     sample per live worker per tick (plus a final one at crash time, so
     an evicted worker's same-tick instructions are not lost).  All of it
     is skipped entirely when [obs] is [None]. *)
  let emit ev = match obs with None -> () | Some s -> Obs.Sink.event s ev in
  let wsinks =
    match obs with
    | None -> [||]
    | Some s -> Array.init cfg.nworkers (Obs.Sink.for_worker s)
  in
  let idle_acc = Array.make cfg.nworkers 0 in (* unused budget this slice *)
  let d_solver = Smt.Solver.zero_stats () in  (* dead workers' solver counters *)
  (* each live engine's counters at the start of the slice (zero for an
     engine spawned during it): per-worker results and timeline samples
     count from here, so a paused cluster's slices sum like a run's *)
  let base_useful = Array.make cfg.nworkers 0 in
  let base_replay = Array.make cfg.nworkers 0 in
  let base_solver = Array.init cfg.nworkers (fun _ -> Smt.Solver.zero_stats ()) in
  let sample_worker i (w : 'env Worker.t) =
    if obs <> None then begin
      let stats = w.Worker.cfg.Executor.stats in
      let ss = Smt.Solver.stats w.Worker.cfg.Executor.solver in
      Obs.Sink.observe wsinks.(i)
        ~useful:(stats.Executor.useful_instrs - base_useful.(i))
        ~replay:(stats.Executor.replay_instrs - base_replay.(i))
        ~idle:idle_acc.(i) ~depth:(Worker.queue_length w)
        ~queries:(ss.Smt.Solver.queries - base_solver.(i).Smt.Solver.queries)
        ~sat_calls:(ss.Smt.Solver.sat_calls - base_solver.(i).Smt.Solver.sat_calls)
    end
  in
  (* zero the timeline's cumulative cursors of worker [i], so the counts
     from here are not mistaken for a continuation of another engine's *)
  let zero_timeline i =
    if obs <> None then begin
      idle_acc.(i) <- 0;
      Obs.Sink.observe wsinks.(i) ~useful:0 ~replay:0 ~idle:0 ~depth:0 ~queries:0 ~sat_calls:0
    end
  in
  let wire : message Transport.wire = Transport.wire cfg.faults in
  let tick = ref 0 in
  let transfers_total = ref 0 in
  let buckets = ref [] in (* closed during the current slice *)
  let cur_bucket = ref (fresh_bucket 0) in
  let root_seeded = ref false in
  (* counters of crashed workers, captured at crash time: the reported
     path/error counts live in the transport's credits (unreported
     completions are redone by recovery and counted there — never
     twice), while these instruction counters hold everything the dead
     engine physically executed *)
  let d_useful = ref 0 and d_replay = ref 0 and d_broken = ref 0 in
  let d_recov_replay = ref 0 in

  let send_net ~at ~src ~dst msg = ignore (Transport.send wire ~now:!tick ~src ~dst ~at msg) in
  let alive_workers () =
    Array.to_list workers |> List.filter_map (fun w -> w)
  in
  let jobs_delay encoded =
    (* transfer size adds latency: 1 tick per 4 KiB of wire encoding *)
    cfg.latency + (String.length encoded / 4096)
  in
  let spawn i ~bans =
    let w = cfg.make_worker i in
    Worker.ban_paths w bans;
    workers.(i) <- Some w;
    base_useful.(i) <- 0;
    base_replay.(i) <- 0;
    base_solver.(i) <- Smt.Solver.zero_stats ();
    zero_timeline i;
    w
  in
  (* The shared fault-tolerance core, driving this simulation's wire:
     leased sends enter the lossy latency-stamped wire, a crash-stop
     tears the simulated worker down before the transport reconstructs
     its unexplored region from the ledger, and a rejoin spawns a fresh
     engine. *)
  let transport =
    Transport.create ~base_timeout:(6 * (cfg.latency + 1)) ~initial_bans:cfg.init_bans ?obs ~wire
      {
        Transport.nworkers = cfg.nworkers;
        send_jobs =
          (fun ~src ~lease ~dst ~batch ~recovery ~resend:_ ->
            let encoded = Job.encode_batch batch in
            send_net ~at:(!tick + jobs_delay encoded) ~src ~dst
              (Jobs { lease; src; dst; encoded; recovery }));
        install_bans =
          (fun bans ->
            List.iter (fun w -> Worker.ban_paths w bans) (alive_workers ());
            []);
        live_workers =
          (fun () ->
            Array.to_list workers
            |> List.mapi (fun i w -> Option.map (fun w -> (i, Worker.queue_length w)) w)
            |> List.filter_map (fun x -> x));
        begin_crash =
          (fun ~worker:i ->
            if i < 0 || i >= cfg.nworkers then false (* out-of-range victim *)
            else
              match workers.(i) with
              | None -> false (* scheduled crash of a worker not (yet, anymore) alive *)
              | Some w ->
                departed.(i) <- true;
                sample_worker i w; (* last timeline sample before the engine is dropped *)
                emit (Obs.Event.Crash { worker = i });
                Smt.Solver.accum_stats d_solver (Smt.Solver.stats w.Worker.cfg.Executor.solver);
                let _, _, useful, replay = Worker.stats w in
                d_useful := !d_useful + useful;
                d_replay := !d_replay + replay;
                d_broken := !d_broken + w.Worker.broken_replays;
                d_recov_replay := !d_recov_replay + w.Worker.recovery_replay_instrs;
                (* undeliverable traffic: jobs to the dead worker are already
                   re-routed through their leases; requests involving it are moot *)
                Transport.retain wire (function
                  | Jobs { dst; _ } -> dst <> i
                  | Transfer_request { src; dst; _ } -> src <> i && dst <> i
                  | Ack _ -> true (* stale acks are ignored by the ledger *));
                workers.(i) <- None;
                true);
        rejoin =
          (fun ~worker:i ~bans ->
            if workers.(i) = None then begin
              departed.(i) <- false;
              emit (Obs.Event.Rejoin { worker = i });
              ignore (spawn i ~bans)
            end);
      }
  in
  (* the balancer's overlay with every live engine's vector merged in
     (engines may be ahead of their last reports); a resumed campaign ORs
     the exported copy into its own, since lines covered only by
     completed paths are not re-covered by frontier replays *)
  let global_coverage () =
    Transport.global_coverage transport
      (List.map (fun w -> w.Worker.cfg.Executor.coverage) (alive_workers ()))
  in
  let global_coverage_fraction () =
    Engine.Coverage.(fraction ~coverable:cfg.coverable_lines (popcount (global_coverage ())))
  in
  let totals () =
    List.fold_left
      (fun (p, e, u, r, b) w ->
        let paths, errs, useful, replay = Worker.stats w in
        (p + paths, e + errs, u + useful, r + replay, b + w.Worker.broken_replays))
      ( Transport.credit_paths transport,
        Transport.credit_errors transport,
        !d_useful,
        !d_replay,
        !d_broken )
      (alive_workers ())
  in
  (* [(id, f slot worker)] for every live worker *)
  let per_live f =
    Array.to_list workers
    |> List.mapi (fun i w -> Option.map (fun w -> (w.Worker.id, f i w)) w)
    |> List.filter_map Fun.id
  in
  let recovery_replay () =
    List.fold_left
      (fun acc w -> acc + w.Worker.recovery_replay_instrs)
      !d_recov_replay (alive_workers ())
  in
  let solver_total () =
    let agg = Smt.Solver.zero_stats () in
    Smt.Solver.accum_stats agg d_solver;
    List.iter
      (fun w -> Smt.Solver.accum_stats agg (Smt.Solver.stats w.Worker.cfg.Executor.solver))
      (alive_workers ());
    agg
  in

  (* One slice: tick until the cluster has retired [budget] more useful
     instructions (or reached its goal, or spent [max_ticks] ticks), then
     drain to a barrier.  The next slice picks up at the next tick with
     every worker's frontier, snapshots and solver as this one left them. *)
  let advance budget =
    let tick0 = !tick in
    let paths0, errors0, useful0, replay0, broken0 = totals () in
    let transfers0 = !transfers_total in
    let crashes0 = Transport.crashes transport in
    let recovered0 = Transport.recovered_jobs transport in
    let retransmits0 = Transport.retransmits transport in
    let recov0 = recovery_replay () in
    let solver0 = solver_total () in
    (match obs with Some s -> Obs.Sink.set_now s tick0 | None -> ());
    Array.iteri
      (fun i w ->
        match w with
        | None -> ()
        | Some w ->
          let _, _, useful, replay = Worker.stats w in
          base_useful.(i) <- useful;
          base_replay.(i) <- replay;
          base_solver.(i) <- Smt.Solver.copy_stats w.Worker.cfg.Executor.solver;
          zero_timeline i)
      workers;
    buckets := [];
    let stop = ref false in
    let reached = ref false in
    (* drain mode (budget preemption): no execution budgets are granted and
       no new transfers are issued, but message delivery, acks, reports and
       retransmission sweeps continue until no lease is in flight — the
       barrier at which worker digests partition the unexplored region. *)
    let draining = ref false in
    while not !stop do
      let t = !tick in
      (match obs with Some s -> Obs.Sink.set_now s t | None -> ());
      (* scheduled faults: crash-stop, then fresh-engine rejoins *)
      Transport.run_schedule transport ~now:t;
      (* worker arrivals *)
      for i = 0 to cfg.nworkers - 1 do
        if workers.(i) = None && (not departed.(i)) && cfg.join_tick i <= t then begin
          emit (Obs.Event.Join { worker = i });
          let w = spawn i ~bans:(Transport.bans transport) in
          if i = 0 && not !root_seeded then begin
            (match cfg.init_frontier with
            | None ->
              Worker.seed_root w;
              Transport.seed_root transport ~dst:0 ~now:t
            | Some jobs ->
              (* resume: the checkpointed frontier becomes virtual
                 candidates on the first worker (the balancer spreads them
                 like any load imbalance), leased as a delivered seed so a
                 crash before the first report re-seeds it.  Replaying a
                 restored frontier is restoration cost, not ordinary
                 rebalancing replay: it books as recovery, consistent with
                 the other failure-path re-imports (see DESIGN.md, "Prefix
                 handoff").  The slice budget already counts only useful
                 instructions, so the classification changes accounting,
                 not behavior. *)
              Worker.receive_jobs ~recovery:true w jobs;
              Transport.seed_jobs transport ~dst:0 ~jobs ~now:t);
            root_seeded := true
          end
        end
      done;
      (* deliver due messages *)
      List.iter
        (function
          | Jobs { lease; src; dst; encoded; recovery } -> (
            match workers.(dst) with
            | Some w -> (
              (* always (re)acknowledge: the previous ack may have been
                 lost; deliver the payload only once per lease *)
              send_net ~at:(t + cfg.latency) ~src:dst ~dst:Faultplan.lb
                (Ack { lease; src = dst });
              match Worker.receive_lease ~recovery w ~lease encoded with
              | Some count ->
                emit (Obs.Event.Job_transfer { lease; src; dst; count; recovery });
                transfers_total := !transfers_total + count;
                !cur_bucket.transferred <- !cur_bucket.transferred + count
              | None -> ())
            | None -> ())
          | Transfer_request { src; dst; count } -> (
            (* during a drain no new leases may be created: the jobs stay
               in the source's digest, which is what the export records *)
            if not !draining then
              match (workers.(src), workers.(dst)) with
              | Some w, Some _ ->
                let jobs = Worker.transfer_out w ~count in
                if jobs <> [] then
                  ignore (Transport.issue_transfer transport ~src ~dst ~jobs ~now:t)
              | _ -> ())
          | Ack { lease; _ } -> Transport.ack transport ~lease ~now:t)
        (Transport.due wire ~now:t);
      (* balancer disable hook (Fig. 13) *)
      if cfg.lb_disable_at = Some t then Transport.disable_balancing transport;
      (* each worker runs its per-tick instruction budget (suspended while
         draining to a preemption barrier) *)
      if not !draining then
        Array.iteri
          (fun i w ->
            match w with
            | Some w ->
              let used = Worker.execute w ~budget:(cfg.speed i) in
              if obs <> None then begin
                idle_acc.(i) <- idle_acc.(i) + max 0 (cfg.speed i - used);
                sample_worker i w
              end
            | None -> ())
          workers;
      (* periodic status reports and rebalancing.  Reports are the reliable
         control plane: each doubles as the worker's durable recovery point
         in the ledger (frontier digest + cumulative counters). *)
      if t mod cfg.status_interval = 0 then begin
        Array.iteri
          (fun i w ->
            match w with
            | None -> ()
            | Some w ->
              let paths, errors, _, _ = Worker.stats w in
              let global =
                Transport.report transport ~worker:i ~tick:t ~queue_len:(Worker.queue_length w)
                  ~coverage:w.Worker.cfg.Executor.coverage ~digest:(Worker.digest_paths w) ~paths
                  ~errors ~received:w.Worker.imported_leases
              in
              (* the worker merges the global vector into its own so its
                 local coverage-optimized strategy pursues the global goal *)
              Executor.merge_coverage w.Worker.cfg global)
          workers;
        if not !draining then
          List.iter
            (fun { Transport.src; dst; count } ->
              send_net ~at:(t + cfg.latency) ~src:Faultplan.lb ~dst:src
                (Transfer_request { src; dst; count }))
            (Transport.rebalance ~now:t ~staleness:(2 * cfg.status_interval) transport)
      end;
      (* at-least-once delivery: the transport resends leases past their
         backoff deadline, evicts destinations that exhaust the retransmit
         budget (the crash path keeps the re-route exact), and re-routes
         orphans parked while no worker was alive *)
      Transport.tick transport ~now:t;
      (* bucket bookkeeping: sample the candidate population every tick so
         the bucket reports an average, not an end-of-bucket snapshot *)
      !cur_bucket.cand_sum <-
        !cur_bucket.cand_sum
        + List.fold_left (fun acc w -> acc + Worker.queue_length w) 0 (alive_workers ());
      !cur_bucket.cand_samples <- !cur_bucket.cand_samples + 1;
      if (t + 1) mod cfg.bucket_ticks = 0 then begin
        let _, _, useful, _, _ = totals () in
        !cur_bucket.candidates <- !cur_bucket.cand_sum / max 1 !cur_bucket.cand_samples;
        !cur_bucket.useful <- useful;
        !cur_bucket.coverage <- global_coverage_fraction ();
        buckets := !cur_bucket :: !buckets;
        cur_bucket := fresh_bucket (t + 1)
      end;
      (* goal checks.  Exhaustion means the partitioned exploration really
         is complete: the root was seeded, no job is in flight or awaiting
         an ack or parked for recovery, and every live worker is idle.
         Workers whose join tick never arrives cannot block it. *)
      let exhausted () =
        !root_seeded
        && Transport.idle wire
        && Transport.quiesced transport
        && (match alive_workers () with
           | [] -> false
           | ws -> List.for_all Worker.is_idle ws)
      in
      (match cfg.goal with
      | Exhaust -> if exhausted () then begin reached := true; stop := true end
      | Coverage_target target ->
        if t mod cfg.status_interval = 0 && global_coverage_fraction () >= target then begin
          reached := true;
          stop := true
        end
        else if exhausted () then stop := true
      | Time_limit -> if exhausted () then begin reached := true; stop := true end);
      (* graceful degradation: no worker alive, and none left to join or
         rejoin — the goal is out of reach *)
      if Transport.stranded transport ~now:t && t >= last_join then stop := true;
      (* budget preemption: once the cluster has retired the instruction
         budget, drain to a barrier and stop there with an export.  Only
         *useful* instructions count: replaying a resumed frontier is
         restoration cost, and charging it to the budget would let a slice
         whose replay bill exceeds the budget drain with zero progress —
         a campaign restored behind a deep frontier would then spin
         forever.  Counting useful work alone guarantees every slice
         advances exploration, so chained slices terminate. *)
      if not !draining then begin
        let _, _, useful, _, _ = totals () in
        if useful - useful0 >= budget then draining := true
      end;
      if !draining && Transport.idle wire && Transport.quiesced transport then
        stop := true;
      incr tick;
      if !tick - tick0 >= cfg.max_ticks then stop := true
    done;
    let paths, errors, useful, replay, broken = totals () in
    (* the frontier export: only meaningful at a drained barrier (budget
       preemption, or natural exhaustion — where the digests are empty and
       the export records just bans and coverage) *)
    let export =
      if not (Transport.idle wire && Transport.quiesced transport) then None
      else
        Some
          {
            fx_jobs = List.concat_map Worker.digest_paths (alive_workers ());
            fx_bans = Transport.bans transport;
            fx_coverage = global_coverage ();
          }
    in
    {
      ticks = !tick - tick0;
      reached_goal = !reached;
      total_paths = paths - paths0;
      total_errors = errors - errors0;
      useful_instrs = useful - useful0;
      replay_instrs = replay - replay0;
      broken_replays = broken - broken0;
      transfers = !transfers_total - transfers0;
      buckets = List.rev !buckets;
      per_worker_useful =
        per_live (fun i w ->
            let _, _, useful, _ = Worker.stats w in
            useful - base_useful.(i));
      final_coverage = global_coverage_fraction ();
      crashes = Transport.crashes transport - crashes0;
      recovered_jobs = Transport.recovered_jobs transport - recovered0;
      retransmits = Transport.retransmits transport - retransmits0;
      recovery_replay_instrs = recovery_replay () - recov0;
      solver_stats = Smt.Solver.diff_stats (solver_total ()) solver0;
      per_worker_solver =
        per_live (fun i w ->
            Smt.Solver.diff_stats (Smt.Solver.stats w.Worker.cfg.Executor.solver) base_solver.(i));
      export;
    }
  in
  { workers; advance }

let advance t ~budget = t.advance budget

let shed t = Array.iter (Option.iter Worker.shed) t.workers

let run ?obs cfg = advance (start ?obs cfg) ~budget:max_int

(* Convenience: a homogeneous cluster configuration with sensible
   defaults.  [make_worker] receives the worker id. *)
let default_config ?(faults = Faultplan.none) ~nworkers ~make_worker ~coverable_lines () =
  {
    nworkers;
    make_worker;
    join_tick = (fun _ -> 0);
    speed = (fun _ -> 2000);
    status_interval = 20;
    latency = 2;
    lb_disable_at = None;
    goal = Exhaust;
    max_ticks = 1_000_000;
    bucket_ticks = 1000;
    coverable_lines;
    faults;
    init_frontier = None;
    init_bans = [];
  }
