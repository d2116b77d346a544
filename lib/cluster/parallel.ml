(* True-multicore cluster runtime: one OCaml domain per worker.

   The simulated [Driver] remains the deterministic reference; this
   runtime trades its virtual clock for real [Domain.t]s so wall-clock
   scaling (paper Figs. 7-8) is measurable — and, since the fault
   tolerance core moved into the shared {!Transport}, it now survives
   the same fault model: Faultplan-driven domain crashes (crash-stop
   with amnesia, observed at quantum poll points), mid-run rejoins on a
   fresh domain, and seeded loss / delay / duplication of job batches,
   acks and steal requests, all scheduled, drawn and recovered exactly
   by the same coordinator, {!Transport}, that the simulation uses (its
   schedule, its lossy {!Transport.wire}, its re-route around a dead
   thief and its stop rule): this runtime keeps only its message plane
   (mailboxes and domains) and its wall clock.  The moving parts:

   - Each worker domain owns a real [Worker.t] (created *inside* the
     domain by [make_worker], so domain-local solver state lands on the
     right domain) and a bounded mutex+condition mailbox.  The workers'
     solvers share one answer store per run ({!Smt.Solver.Store}), so a
     thief answers from the caches its victim filled; the simulated
     driver's workers keep private ones, as the paper's do.  Worker-bound
     messages: leased job batches, transfer (steal) requests, ban lists,
     merged-coverage feedback, a wake-up poke, and stop.

   - The coordinator runs on the calling domain and is the only thread
     that touches the transport.  Workers never ship jobs to each
     other directly any more: a steal victim *offers* its batch back to
     the coordinator, which leases it ({!Transport.issue_transfer}) and
     forwards it — so every batch in flight is covered by a lease and a
     crash anywhere loses nothing.  Receivers deduplicate by lease id
     ({!Worker.receive_lease}) and acknowledge every delivery
     (at-least-once, exactly-once import).

   - Time: the coordinator counts one tick per [tick_period] seconds of
     wall clock, waiting for its mailbox with the next tick as deadline
     (a [select] on a wake-up pipe that workers ring when they push to
     a sleeping coordinator).  Ticks drive the fault schedule
     ({!Transport.run_schedule}), delivery of the lossy wire's due
     messages, lease retransmission/eviction sweeps ({!Transport.tick}),
     heartbeat failure detection (armed when the fault plan is not
     empty), and the progress watchdog.  Ticks also bound every
     coordinator block: even with all workers dead, the loop keeps
     waking until {!Transport.stranded} says no rejoin can revive it.

   - Crash-stop: a crash is *declared* first (slot marked dead, its
     later messages filtered, its leases orphaned and re-seeded via
     {!Transport.handle_crash}) and only then observed by the victim,
     which polls an atomic crash flag between quanta and exits with
     amnesia.  Declare-then-kill makes even a false-positive detection
     exact: everything the victim did after its last status report is
     discarded and replayed elsewhere.

   - Balancing is event-driven.  A busy worker runs one
     {!Executor.quantum} at a time and drains its mailbox after each, so
     a [Steal] or a crash flag is answered within one quantum; it
     reports its queue every [status_every] quanta.  The coordinator
     runs the balancer after every drain round that handled a status
     report: queue estimates only change when a report arrives, and
     the one-raid-per-victim / one-feed-per-thief guards keep a round
     from re-raiding on numbers it already acted on.  No timer gates a
     steal, so balancing does not depend on [tick_period].  What bounds
     the churn is cost, not time: the balancer feeds only workers that
     reported an empty queue ([starved_only]), and reports carry the worker's useful and
     replay instruction counts, so the balancer runs only while
     rebalancing replay stays within a fixed share of useful work.

   - Quiescence: the coordinator tracks per-slot idleness from status
     reports.  Mailboxes are FIFO per sender, so an [Offer] always
     precedes the idle report that follows giving work away, and an
     [Ack] (which clears the receiver's idle bit on arrival, whatever
     fate the wire deals its lease release) always precedes the
     receiver's next idle report.  "Every live slot idle with no steal
     outstanding, nothing on the wire, and the transport quiesced" can
     therefore never hold while work exists anywhere.  Dead slots are
     exempt, so a run whose crashed workers never rejoin still
     terminates — with exactly the fault-free totals.

   Deadlock-freedom: workers block only on (a) their own empty mailbox
   when idle — any push, including the crash-time [Poke], wakes them —
   and (b) bounded pushes.  The coordinator never blocks forever on a
   full mailbox of a dead worker: every coordinator->worker push is
   [push_timeout]-bounded, and a timed-out job push is simply a lost
   message for the lease layer to retransmit. *)

module Executor = Engine.Executor

(* ---- mailbox ------------------------------------------------------ *)

module Mailbox = struct
  type 'a t = {
    lock : Mutex.t;
    nonempty : Condition.t;
    nonfull : Condition.t;
    q : 'a Queue.t;
    cap : int;
    bell : Unix.file_descr option;
        (* write end of the owner's wake-up pipe, for an owner that waits
           with a deadline ([drain_until]) *)
    mutable sleeping : bool;  (* the owner is in, or entering, its [select] *)
  }

  let create ?bell ~cap () =
    {
      lock = Mutex.create ();
      nonempty = Condition.create ();
      nonfull = Condition.create ();
      q = Queue.create ();
      cap;
      bell;
      sleeping = false;
    }

  (* Non-blocking push; [false] when the mailbox is full. *)
  let try_push t x =
    Mutex.lock t.lock;
    let ok = Queue.length t.q < t.cap in
    if ok then begin
      Queue.add x t.q;
      Condition.signal t.nonempty;
      if t.sleeping then begin
        t.sleeping <- false;
        (* non-blocking: a full pipe already holds a wake-up *)
        Option.iter
          (fun fd -> try ignore (Unix.single_write_substring fd "!" 0 1) with Unix.Unix_error _ -> ())
          t.bell
      end
    end;
    Mutex.unlock t.lock;
    ok

  (* Bounded blocking push: retry for at most [timeout] seconds, then
     give up.  The stdlib [Condition] has no timed wait, so this polls —
     acceptable because the slow path only runs when the receiver is
     wedged or dead, which is exactly when we must not block forever.
     [false] = the message was not enqueued. *)
  let push_timeout t x ~timeout =
    if try_push t x then true
    else begin
      let deadline = Unix.gettimeofday () +. timeout in
      let rec go () =
        if try_push t x then true
        else if Unix.gettimeofday () >= deadline then false
        else begin
          Unix.sleepf 0.0005;
          go ()
        end
      in
      go ()
    end

  let drain_locked t =
    let xs = ref [] in
    while not (Queue.is_empty t.q) do
      xs := Queue.pop t.q :: !xs
    done;
    Condition.broadcast t.nonfull;
    List.rev !xs

  (* Non-blocking drain: everything queued right now, oldest first. *)
  let drain t =
    Mutex.lock t.lock;
    let xs = drain_locked t in
    Mutex.unlock t.lock;
    xs

  (* Drain that waits until a message is queued or the clock passes
   [deadline], whichever comes first ([bell_in] is the read end of the
   pipe whose write end is [t.bell]).  A push sees [sleeping] under the
   lock, so it either lands before the emptiness check or rings; a ring
   that arrives after a timeout only makes the next wait return early. *)
  let drain_until t ~bell_in ~deadline =
    Mutex.lock t.lock;
    if Queue.is_empty t.q then begin
      t.sleeping <- true;
      Mutex.unlock t.lock;
      let timeout = deadline -. Unix.gettimeofday () in
      (if timeout > 0.0 then
         match Unix.select [ bell_in ] [] [] timeout with
         | [], _, _ -> ()
         | _ -> ignore (Unix.read bell_in (Bytes.create 64) 0 64)
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      Mutex.lock t.lock;
      t.sleeping <- false
    end;
    let xs = drain_locked t in
    Mutex.unlock t.lock;
    xs
end

(* ---- domain pool -------------------------------------------------- *)

(* Worker domains are parked after a run and reused by the next one
   instead of being spawned and joined every run.  The OCaml 5.1.1
   runtime can crash when a domain stops while the major GC is
   marking ephemerons, and the hashcons table's weak tables are
   ephemerons that live as long as the process: with the debug runtime,
   11 of 300 [bench scaling-quick] processes tripped the assertion
   [ephe_cycle_info.num_domains_todo == num_domains_done] in major_gc.c
   when domains were spawned and joined per run, 0 of 300 with the
   pool.  Parked domains never stop before the process exits, which
   does not wait for them. *)
module Pool = struct
  type 'a promise = {
    p_lock : Mutex.t;
    p_done : Condition.t;
    mutable p_result : ('a, exn) result option;
  }

  let lock = Mutex.create ()
  let wake = Condition.create ()
  let tasks : (unit -> unit) Queue.t = Queue.create ()
  let idle = ref 0

  let rec serve () =
    Mutex.lock lock;
    incr idle;
    while Queue.is_empty tasks do
      Condition.wait wake lock
    done;
    decr idle;
    let task = Queue.pop tasks in
    Mutex.unlock lock;
    task ();
    serve ()

  (* Run [f] on a parked domain, or on a new one when every parked domain
     already has a task. *)
  let spawn f =
    let p = { p_lock = Mutex.create (); p_done = Condition.create (); p_result = None } in
    let task () =
      let v = try Ok (f ()) with e -> Error e in
      Mutex.lock p.p_lock;
      p.p_result <- Some v;
      Condition.broadcast p.p_done;
      Mutex.unlock p.p_lock
    in
    Mutex.lock lock;
    Queue.add task tasks;
    if Queue.length tasks > !idle then ignore (Domain.spawn serve) else Condition.signal wake;
    Mutex.unlock lock;
    p

  let join p =
    Mutex.lock p.p_lock;
    while p.p_result = None do
      Condition.wait p.p_done p.p_lock
    done;
    let v = Option.get p.p_result in
    Mutex.unlock p.p_lock;
    match v with Ok v -> v | Error e -> raise e
end

(* ---- messages ----------------------------------------------------- *)

(* [issued_ns] carries the wall-clock stamp of the Steal that caused a
   job batch (0 when unprofiled or on retransmit): the coordinator
   stamps the request, the victim copies the stamp onto its offer, and
   the thief closes the span on import — a full steal round-trip. *)
type wmsg =
  | Jobs of { lease : int; encoded : string; recovery : bool; issued_ns : int }
      (** a leased batch in {!Job.encode_batch} form (prefix handoff):
          the receiver decodes, replays the shared prefix once and forks
          the suffixes.  Receivers dedup by lease id and always ack *)
  | Steal of { dst : int; count : int; issued_ns : int }
      (** balancer transfer request; always answered with an [Offer] *)
  | Bans of Job.t list  (** nodes a crashed worker had handed away *)
  | Coverage of Bytes.t  (** merged global coverage overlay *)
  | Poke  (** contentless wake-up, so a blocked idle worker re-polls its crash flag *)
  | Stop

type cmsg =
  | Status of {
      worker : int;
      incarnation : int;
      queue_len : int;
      idle : bool;
      coverage : Bytes.t;
      digest : Job.t list;  (** frontier digest: the worker's durable recovery point *)
      paths : int;
      errors : int;
      useful : int;  (** instructions retired exploring, this incarnation *)
      replay : int;  (** instructions retired replaying transferred jobs (recovery excluded) *)
      received : int list;  (** cumulative lease ids imported (ack piggyback) *)
    }
  | Offer of { worker : int; incarnation : int; dst : int; jobs : Job.t list; issued_ns : int }
      (** a steal victim returning the batch for leasing; empty = nothing to give *)
  | Ack of { worker : int; incarnation : int; lease : int }
  | Failed of { worker : int; incarnation : int; error : string }
      (** the worker's domain died on an exception (reported, then joined) *)

(* What crosses the coordinator's lossy wire ({!Transport.wire}) in a
   faulty run: a worker-bound message for one incarnation, or an ack on
   its way to the ledger. *)
type wired = To_worker of { dst : int; inc : int; msg : wmsg } | Ack_lease of int

(* ---- configuration ------------------------------------------------ *)

type 'env config = {
  ndomains : int;
  make_worker : int -> 'env Worker.t;
  status_every : int;
  faults : Faultplan.t;
  tick_period : float;
  obs : Obs.Sink.t option;
      (* when set, the runtime itself is profiled: mailbox waits, steal
         round-trips and (recovery) replays per worker domain, quiescence
         rounds on the coordinator (through a buffered lb-attributed view) *)
}

let default_config ?obs ?(faults = Faultplan.none) ~ndomains ~make_worker () =
  {
    ndomains;
    make_worker;
    status_every = 16;
    faults;
    tick_period = 0.001;
    obs;
  }

(* Messages a worker mailbox holds before a push waits (the
   coordinator's holds this many per slot, plus one). *)
let mailbox_capacity = 4_096

(* Seconds a coordinator->worker push may wait on a full mailbox. *)
let push_timeout = 1.0

(* Ticks of silence before a busy worker is suspected; twice that and it
   is declared crashed.  Only a faulty run arms the detector (1 s at the
   default 1 ms tick), so a false positive can never perturb a
   fault-free run. *)
let heartbeat_ticks = 1_000

(* Seconds without a coordinator message before the run dumps its state
   and fails instead of hanging. *)
let watchdog = 120.0

type result = {
  ndomains : int;
  total_paths : int;
  total_errors : int;
  useful_instrs : int;
  replay_instrs : int;
  broken_replays : int;
  transfers : int;
  steals : int;
  status_reports : int;
  jobs_sent : int;
  jobs_received : int;
  crashes : int;
  recovered_jobs : int;
  retransmits : int;
  recovery_replay_instrs : int;
  coverage_vector : Bytes.t;
  final_coverage : float;
  per_worker_useful : (int * int) list;
  solver_stats : Smt.Solver.stats;
  per_worker_solver : (int * Smt.Solver.stats) list;
  store_locks : Smt.Shard_lock.stats;
}

(* What a worker domain returns through [Pool.join].  Summaries of
   incarnations that were declared crashed contribute instruction /
   solver / coverage counters only: their path and error counts are
   credited from the ledger's last report, and everything after that
   report is replayed elsewhere (amnesia). *)
type summary = {
  sm_id : int;
  sm_paths : int;
  sm_errors : int;
  sm_useful : int;
  sm_replay : int;
  sm_broken : int;
  sm_recovery_replay : int;
  sm_sent : int;
  sm_received : int;
  sm_solver : Smt.Solver.stats;
  sm_coverage : Bytes.t;
}

(* ---- worker domain ------------------------------------------------ *)

(* How long a worker will wait to push into the coordinator's mailbox
   before concluding the coordinator has stopped draining (shutdown).
   During a run the coordinator drains continuously, so this never
   fires; at shutdown it prevents a worker from wedging [Pool.join]. *)
let ctl_timeout = 5.0

let worker_body (cfg : 'env config) ~store ~coord ~inbox ~crash ~id:i ~incarnation ~initial_bans
    ~seed =
  try
    let w = cfg.make_worker i in
    (* attached here, not in [make_worker], which callers write *)
    Smt.Solver.attach w.Worker.cfg.Executor.solver store;
    Fun.protect
      ~finally:(fun () -> Option.iter Obs.Sink.flush w.Worker.cfg.Executor.obs)
      (fun () ->
        (* Runtime spans go through the worker's own (buffered) view when
           it has one, so they merge on the same flush path as everything
           else. *)
        let prof = Option.map Obs.Profile.create w.Worker.cfg.Executor.obs in
        if initial_bans <> [] then Worker.ban_paths w initial_bans;
        if seed then Worker.seed_root w;
        let stop = ref false in
        let crashed () = Atomic.get crash in
        let send_ctl msg = ignore (Mailbox.push_timeout coord msg ~timeout:ctl_timeout) in
        let send_status ~idle =
          let paths, errors, useful, replay = Worker.stats w in
          send_ctl
            (Status
               {
                 worker = i;
                 incarnation;
                 queue_len = Worker.queue_length w;
                 idle;
                 coverage = Bytes.copy w.Worker.cfg.Executor.coverage;
                 digest = Worker.digest_paths w;
                 paths;
                 errors;
                 useful;
                 replay = replay - w.Worker.recovery_replay_instrs;
                 received = w.Worker.imported_leases;
               })
        in
        let process = function
          | Jobs { lease; encoded; recovery; issued_ns } ->
            if Worker.receive_lease ~recovery w ~lease encoded <> None && issued_ns > 0 then
              ignore (Obs.Profile.record prof Obs.Profile.Steal_rtt ~start_ns:issued_ns);
            (* always (re)acknowledge: the previous ack may have been lost *)
            send_ctl (Ack { worker = i; incarnation; lease })
          | Steal { dst; count; issued_ns } ->
            let jobs = Worker.transfer_out w ~count in
            (* even an empty offer must go back: it settles the
               coordinator's outstanding-steal accounting.  If the push
               times out (coordinator gone: shutdown), take the batch
               back — the nodes are fenced here, so re-importing replays
               them.  That replay is failure-path cost, not ordinary
               rebalancing, so it books as recovery — the same class as
               reconstructing a crashed worker's orphans. *)
            if
              not
                (Mailbox.push_timeout coord
                   (Offer { worker = i; incarnation; dst; jobs; issued_ns })
                   ~timeout:ctl_timeout)
            then if jobs <> [] then Worker.receive_jobs ~recovery:true w jobs
          | Bans paths -> Worker.ban_paths w paths
          | Coverage global -> ignore (Executor.merge_coverage w.Worker.cfg global)
          | Poke -> ()
          | Stop -> stop := true
        in
        let quanta = ref 0 in
        while (not !stop) && not (crashed ()) do
          if Worker.is_idle w then begin
            (* Declare idleness with the mailbox lock held, so a
               concurrent push either lands before the emptiness check
               (we consume it without sleeping) or signals us awake. *)
            Mutex.lock inbox.Mailbox.lock;
            let wait_t0 =
              if Queue.is_empty inbox.Mailbox.q then begin
                Mutex.unlock inbox.Mailbox.lock;
                send_status ~idle:true;
                let t0 = Obs.Profile.start prof in
                Mutex.lock inbox.Mailbox.lock;
                while Queue.is_empty inbox.Mailbox.q do
                  Condition.wait inbox.Mailbox.nonempty inbox.Mailbox.lock
                done;
                t0
              end
              else 0
            in
            let msgs = Mailbox.drain_locked inbox in
            Mutex.unlock inbox.Mailbox.lock;
            (* Record after releasing the inbox lock: staging the span may
               trigger a threshold flush, which takes the obs core lock. *)
            if wait_t0 > 0 then
              ignore (Obs.Profile.record prof Obs.Profile.Mailbox_wait ~start_ns:wait_t0);
            (* crash-stop with amnesia: a declared victim processes
               nothing more — its unimported messages are already covered
               by leases or recovery *)
            if not (crashed ()) then List.iter process msgs
          end
          else begin
            (* the one busy loop: a quantum, then the mailbox, so a Steal
               or the crash flag waits at most one quantum *)
            List.iter process (Mailbox.drain inbox);
            if (not !stop) && (not (crashed ())) && not (Worker.is_idle w) then begin
              ignore (Worker.run_quantum w);
              incr quanta;
              if !quanta mod cfg.status_every = 0 then send_status ~idle:false
            end
          end
        done;
        let paths, errors, useful, replay = Worker.stats w in
        {
          sm_id = i;
          sm_paths = paths;
          sm_errors = errors;
          sm_useful = useful;
          sm_replay = replay;
          sm_broken = w.Worker.broken_replays;
          sm_recovery_replay = w.Worker.recovery_replay_instrs;
          sm_sent = w.Worker.jobs_sent;
          sm_received = w.Worker.jobs_received;
          sm_solver = Smt.Solver.copy_stats w.Worker.cfg.Executor.solver;
          sm_coverage = Bytes.copy w.Worker.cfg.Executor.coverage;
        })
  with e ->
    (* A worker that dies mid-run (e.g. raising during replay) must still
       let [Pool.join] complete and the coordinator learn of the death:
       report the exception through the control mailbox and return an
       empty summary.  The coordinator treats [Failed] as a crash
       declaration, so the slot's leases recover exactly as if the
       fault plan had killed it. *)
    (try
       ignore
         (Mailbox.push_timeout coord
            (Failed { worker = i; incarnation; error = Printexc.to_string e })
            ~timeout:ctl_timeout)
     with _ -> ());
    {
      sm_id = i;
      sm_paths = 0;
      sm_errors = 0;
      sm_useful = 0;
      sm_replay = 0;
      sm_broken = 0;
      sm_recovery_replay = 0;
      sm_sent = 0;
      sm_received = 0;
      sm_solver = Smt.Solver.zero_stats ();
      sm_coverage = Bytes.create 0;
    }

(* ---- coordinator -------------------------------------------------- *)

(* Rebalancing may spend at most 1/20 of the cluster's useful
   instructions on replaying transferred jobs (see [rebalance]). *)
let replay_budget = 20

(* Coordinator-side view of one incarnation of a worker slot.  A rejoin
   replaces the whole record, inbox and crash flag included, so late
   messages from (and deliveries to) a dead incarnation can never reach
   the fresh one. *)
type slot = {
  s_id : int;
  s_inbox : wmsg Mailbox.t;
  s_crash : bool Atomic.t;
  s_incarnation : int;
  mutable s_dead : bool;  (* declared crashed and not (yet) rejoined *)
  mutable s_idle : bool;  (* from the last processed status / ack *)
  mutable s_queue_len : int;
  mutable s_pending_steals : int;  (* steal copies posted, offers not yet back *)
  mutable s_useful : int;  (* this incarnation's last reported useful instructions *)
  mutable s_replay : int;  (* ... and rebalancing replay *)
  mutable s_last_heard : int;  (* tick of the last message from this incarnation *)
  mutable s_suspect : bool;  (* failure detector: one heartbeat interval silent *)
}

let run ~coverable_lines (cfg : 'env config) =
  if cfg.ndomains < 1 then invalid_arg "Parallel.run: ndomains must be >= 1";
  let n = cfg.ndomains in
  let faulty = not (Faultplan.is_faultless cfg.faults) in
  (* the coordinator sleeps in [select] on this pipe until a worker
     pushes to it or the next tick falls due *)
  let bell_in, bell_out = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock bell_out;
  let coord = Mailbox.create ~bell:bell_out ~cap:(mailbox_capacity * (n + 1)) () in
  let now = ref 0 in
  let fresh_slot i ~incarnation =
    {
      s_id = i;
      s_inbox = Mailbox.create ~cap:mailbox_capacity ();
      s_crash = Atomic.make false;
      s_incarnation = incarnation;
      s_dead = false;
      s_idle = false;
      s_queue_len = 0;
      s_pending_steals = 0;
      s_useful = 0;
      s_replay = 0;
      s_last_heard = !now;
      s_suspect = false;
    }
  in
  let slots = Array.init n (fresh_slot ~incarnation:0) in
  (* every incarnation's solver answers its sat/det caches from here *)
  let store = Smt.Solver.Store.create () in
  let spawned = ref [] in (* (slot id, incarnation, domain), newest first *)
  let declared : (int * int, unit) Hashtbl.t = Hashtbl.create 8 in
  (* The coordinator profiles and emits through its own buffered
     lb-attributed view: it must never write the shared core while
     domains run, and the view is flushed after they have all joined. *)
  let cobs = Option.map (fun s -> Obs.Sink.buffered s Obs.Event.lb) cfg.obs in
  let cprof = Option.map Obs.Profile.create cobs in
  let emit ev = match cobs with None -> () | Some s -> Obs.Sink.event s ev in
  let stamp () = match cprof with Some _ -> Obs.Clock.now_ns () | None -> 0 in
  let wire : wired Transport.wire = Transport.wire cfg.faults in
  let transfers = ref 0 in
  let steals = ref 0 in
  let status_reports = ref 0 in
  (* cluster-wide useful and rebalancing-replay instructions, as of the
     latest reports (the replay budget's ledger) *)
  let useful_total = ref 0 and replay_total = ref 0 in
  let issued_ns_hint = ref 0 in
  (* A worker-bound message lands in the mailbox of [sl]'s current
     incarnation.  A full mailbox on a wedged or dead worker must never
     block the coordinator: bounded push, overflow = the wire dropped it
     (the lease layer retransmits).  A Steal is pushed without waiting;
     a copy that cannot land is taken back from its victim's pending
     steals (see [rebalance]). *)
  let deliver sl = function
    | Steal _ as msg ->
      if (not (Mailbox.try_push sl.s_inbox msg)) && sl.s_pending_steals > 0 then
        sl.s_pending_steals <- sl.s_pending_steals - 1
    | msg -> ignore (Mailbox.push_timeout sl.s_inbox msg ~timeout:push_timeout)
  in
  (* A faulty run puts job batches and steals on the lossy wire (each
     copy reaches only the incarnation it was sent to, see [on_tick]);
     a fault-free send never draws a fate or queues.  Returns the copies
     on their way: 0 to 2 on the wire, always 1 without faults. *)
  let send_to ~src sl msg =
    if faulty then
      Transport.send wire ~now:!now ~src ~dst:sl.s_id ~at:!now
        (To_worker { dst = sl.s_id; inc = sl.s_incarnation; msg })
    else begin
      deliver sl msg;
      1
    end
  in
  let send_jobs ~src ~lease ~dst ~batch ~recovery ~resend =
    let sl = slots.(dst) in
    if not sl.s_dead then begin
      let issued_ns = if resend then 0 else !issued_ns_hint in
      issued_ns_hint := 0;
      if not resend then
        emit (Obs.Event.Job_transfer { lease; src; dst; count = Job.batch_size batch; recovery });
      ignore (send_to ~src sl (Jobs { lease; encoded = Job.encode_batch batch; recovery; issued_ns }))
    end
  in
  let live_workers () =
    Array.to_list slots
    |> List.filter_map (fun sl -> if sl.s_dead then None else Some (sl.s_id, sl.s_queue_len))
  in
  (* bans are the one worker-bound message that must not be silently
     lost: a worker wedged enough to time the push out is handed back
     for the transport to crash-stop *)
  let install_bans bans =
    Array.fold_left
      (fun wedged sl ->
        if
          (not sl.s_dead)
          && not (Mailbox.push_timeout sl.s_inbox (Bans bans) ~timeout:push_timeout)
        then sl.s_id :: wedged
        else wedged)
      [] slots
  in
  let begin_crash ~worker:i =
    if i < 0 || i >= n then false
    else
      let sl = slots.(i) in
      if sl.s_dead then false
      else begin
        (* declare-then-kill: mark the slot dead (filtering everything
           this incarnation still sends), then raise the crash flag the
           victim polls between quanta.  A Poke wakes it if it is
           blocked in its idle wait. *)
        sl.s_dead <- true;
        Hashtbl.replace declared (i, sl.s_incarnation) ();
        Atomic.set sl.s_crash true;
        ignore (Mailbox.try_push sl.s_inbox Poke);
        sl.s_pending_steals <- 0;
        sl.s_suspect <- false;
        emit (Obs.Event.Crash { worker = i });
        true
      end
  in
  let spawn { s_id = id; s_inbox = inbox; s_crash = crash; s_incarnation = incarnation; _ } ~seed
      ~bans =
    let d =
      Pool.spawn (fun () ->
          worker_body cfg ~store ~coord ~inbox ~crash ~id ~incarnation ~initial_bans:bans ~seed)
    in
    spawned := (id, incarnation, d) :: !spawned
  in
  let rejoin ~worker:v ~bans =
    if slots.(v).s_dead then begin
      let sl = fresh_slot v ~incarnation:(slots.(v).s_incarnation + 1) in
      slots.(v) <- sl;
      emit (Obs.Event.Rejoin { worker = v });
      spawn sl ~seed:false ~bans
    end
  in
  (* starvation is answered within a quantum, so moves between busy
     workers would only turn useful work into replay: feed only the
     starved *)
  let transport =
    try
      Transport.create ?obs:cobs ~starved_only:true ~wire
        ~base_timeout:64 (* ticks: ~64 ms before the first retransmit *)
        { Transport.nworkers = n; send_jobs; install_bans; live_workers; begin_crash; rejoin }
    with e ->
      (* an invalid fault plan: nothing was spawned yet *)
      Unix.close bell_in;
      Unix.close bell_out;
      raise e
  in
  Array.iter
    (fun sl ->
      emit (Obs.Event.Join { worker = sl.s_id });
      spawn sl ~seed:(sl.s_id = 0) ~bans:(Transport.bans transport))
    slots;
  (* cover the root with a delivered lease, so a crash of worker 0
     before its first report re-seeds the whole tree *)
  Transport.seed_root transport ~dst:0 ~now:0;
  let watchdog_fired = ref false in
  let last_progress = ref (Unix.gettimeofday ()) in
  let touch sl =
    sl.s_last_heard <- !now;
    sl.s_suspect <- false
  in
  let on_tick () =
    incr now;
    let t = !now in
    Transport.run_schedule transport ~now:t;
    List.iter
      (function
        | To_worker { dst; inc; msg } ->
          let sl = slots.(dst) in
          if (not sl.s_dead) && sl.s_incarnation = inc then deliver sl msg
        | Ack_lease lease -> Transport.ack transport ~lease ~now:t)
      (Transport.due wire ~now:t);
    Transport.tick transport ~now:t;
    (* heartbeat failure detection: a busy worker that stops reporting is
       suspected after one interval and declared crashed after two.
       Idle workers are silent by design and exempt — jobs routed to a
       truly dead idle worker are caught by lease eviction instead. *)
    if faulty then
      Array.iter
        (fun sl ->
          if (not sl.s_dead) && not sl.s_idle then begin
            let silent = t - sl.s_last_heard in
            if silent > 2 * heartbeat_ticks then
              Transport.handle_crash transport ~now:t ~worker:sl.s_id
            else if silent > heartbeat_ticks then sl.s_suspect <- true
          end)
        slots;
    if (not !watchdog_fired) && Unix.gettimeofday () -. !last_progress > watchdog then begin
      watchdog_fired := true;
      Printf.eprintf
        "parallel: watchdog after %.0fs without progress: pending=%d parked=%d in_transit=%d\n%!"
        watchdog (Transport.pending_leases transport)
        (Transport.parked_orphans transport)
        (Transport.in_transit wire);
      Array.iter
        (fun sl ->
          Printf.eprintf
            "  worker %d: inc=%d dead=%b idle=%b queue=%d pending_steals=%d last_heard=%d\n%!"
            sl.s_id sl.s_incarnation sl.s_dead sl.s_idle sl.s_queue_len sl.s_pending_steals
            sl.s_last_heard)
        slots
    end
  in
  let handle msg =
    last_progress := Unix.gettimeofday ();
    match msg with
    | Status
        { worker; incarnation; queue_len; idle; coverage; digest; paths; errors; useful; replay; received }
      ->
      let sl = slots.(worker) in
      if incarnation = sl.s_incarnation && not sl.s_dead then begin
        incr status_reports;
        touch sl;
        useful_total := !useful_total + useful - sl.s_useful;
        replay_total := !replay_total + replay - sl.s_replay;
        sl.s_useful <- useful;
        sl.s_replay <- replay;
        sl.s_idle <- idle;
        sl.s_queue_len <- queue_len;
        (* the report is the worker's durable recovery point: digest +
           counters were snapshotted in-domain, so they are consistent *)
        let global =
          Transport.report transport ~worker ~tick:!now ~queue_len ~coverage ~digest ~paths ~errors
            ~received
        in
        (* Coverage feedback only to busy workers: echoing it to an idle
           reporter would wake it for nothing, and the wake-report cycle
           would never quiesce. *)
        if not idle then ignore (Mailbox.try_push sl.s_inbox (Coverage global))
      end
    | Offer { worker; incarnation; dst; jobs; issued_ns } ->
      let sl = slots.(worker) in
      if incarnation = sl.s_incarnation && not sl.s_dead then begin
        touch sl;
        if sl.s_pending_steals > 0 then sl.s_pending_steals <- sl.s_pending_steals - 1;
        if jobs <> [] then begin
          (* a thief that died since the steal was issued is replaced by
             the transport, which books the re-route as recovery *)
          issued_ns_hint := issued_ns;
          ignore (Transport.issue_transfer transport ~src:worker ~dst ~jobs ~now:!now);
          issued_ns_hint := 0;
          transfers := !transfers + List.length jobs
        end
      end
    | Ack { worker; incarnation; lease } ->
      let sl = slots.(worker) in
      if incarnation = sl.s_incarnation && not sl.s_dead then begin
        touch sl;
        (* the acking worker just imported work (or re-acked a dup); it
           re-reports idleness after this ack, through the same FIFO *)
        sl.s_idle <- false;
        (* a faulty run puts the ack on the lossy wire: a lost one leaves
           the lease to retransmit, and the receiver's dedup re-acks *)
        if faulty then
          ignore
            (Transport.send wire ~now:!now ~src:worker ~dst:Faultplan.lb ~at:!now (Ack_lease lease))
        else Transport.ack transport ~lease ~now:!now
      end
    | Failed { worker; incarnation; error } ->
      let sl = slots.(worker) in
      if incarnation = sl.s_incarnation && not sl.s_dead then begin
        Printf.eprintf "parallel: worker %d died: %s\n%!" worker error;
        Transport.handle_crash transport ~now:!now ~worker
      end
  in
  (* Steals are the only source of rebalancing replay, and each one is
     paid for by the thief before it does any useful work.  Answering
     every report would let a small or nearly exhausted tree spend more
     on replay than the stolen subtrees hold, so the balancer runs only
     while the cluster's replay stays within [1/replay_budget] of its
     useful work. *)
  let rebalance () =
    if !replay_total * replay_budget <= !useful_total then
      List.iter
        (fun { Transport.src; dst; count } ->
          if
            src >= 0 && src < n && dst >= 0 && dst < n
            && (not slots.(src).s_dead)
            && (not slots.(dst).s_dead)
            (* one raid per victim at a time: until the Offer returns,
               another Steal would re-export the same queue estimate *)
            && slots.(src).s_pending_steals = 0
            (* and one feed per thief at a time: a destination with a
               lease still crossing the wire is not starving, whatever
               its last report said *)
            && Transport.in_flight_jobs transport ~dst = 0
          then begin
            (* a Steal is pending from the moment it is posted, so the
               guard above holds while it crosses the wire: count it
               before [send_to] can deliver it, then settle the count
               to the copies actually on their way (each copy's Offer
               settles one) *)
            let sl = slots.(src) in
            sl.s_pending_steals <- sl.s_pending_steals + 1;
            let copies =
              send_to ~src:Faultplan.lb sl (Steal { dst; count; issued_ns = stamp () })
            in
            sl.s_pending_steals <- sl.s_pending_steals + copies - 1;
            if copies > 0 then incr steals
          end)
        (Transport.rebalance transport)
  in
  let quiescent () =
    Transport.idle wire
    && Transport.quiesced transport
    && Array.exists (fun sl -> not sl.s_dead) slots
    && Array.for_all (fun sl -> sl.s_dead || (sl.s_idle && sl.s_pending_steals = 0)) slots
  in
  let next_tick = ref (Unix.gettimeofday () +. cfg.tick_period) in
  let rec loop () =
    if quiescent () || Transport.stranded transport ~now:!now || !watchdog_fired then ()
    else begin
      (* One quiescence round = message drain (including the block on an
         empty coordinator mailbox — bounded by the next tick) + the
         ticks that fell due + rebalance.  The balancer runs only on
         rounds that brought a status report: between reports its queue
         estimates cannot change, so any other round would act on
         numbers already acted on. *)
      let round_t0 = Obs.Profile.start cprof in
      let msgs = Mailbox.drain_until coord ~bell_in ~deadline:!next_tick in
      List.iter handle msgs;
      let t = Unix.gettimeofday () in
      while t >= !next_tick do
        on_tick ();
        next_tick := !next_tick +. cfg.tick_period
      done;
      if List.exists (function Status _ -> true | _ -> false) msgs then rebalance ();
      ignore (Obs.Profile.record cprof Obs.Profile.Quiesce_round ~start_ns:round_t0);
      loop ()
    end
  in
  loop ();
  (* stop the workers: live ones by message (falling back to the crash
     flag if their mailbox is wedged), dead ones are already
     crash-flagged — a Poke covers one blocked in its idle wait *)
  Array.iter
    (fun sl ->
      if
        sl.s_dead || !watchdog_fired
        || not (Mailbox.push_timeout sl.s_inbox Stop ~timeout:push_timeout)
      then begin
        Atomic.set sl.s_crash true;
        ignore (Mailbox.try_push sl.s_inbox Poke)
      end)
    slots;
  let joined = List.rev_map (fun (i, inc, d) -> (i, inc, Pool.join d)) !spawned in
  Unix.close bell_in;
  Unix.close bell_out;
  Option.iter Obs.Sink.flush cobs;
  (* Drain any messages that raced with the stop broadcast. *)
  List.iter
    (fun m -> match m with Status _ -> incr status_reports | _ -> ())
    (Mailbox.drain coord);
  if !watchdog_fired then
    failwith "Parallel.run: watchdog fired — no coordinator progress; state dumped to stderr";
  let live i inc = not (Hashtbl.mem declared (i, inc)) in
  let agg = Smt.Solver.zero_stats () in
  List.iter (fun (_, _, s) -> Smt.Solver.accum_stats agg s.sm_solver) joined;
  let coverage_vector =
    Transport.global_coverage transport (List.map (fun (_, _, s) -> s.sm_coverage) joined)
  in
  let sum f = List.fold_left (fun acc (_, _, s) -> acc + f s) 0 joined in
  let sum_live f =
    List.fold_left (fun acc (i, inc, s) -> if live i inc then acc + f s else acc) 0 joined
  in
  {
    ndomains = n;
    (* paths/errors: live incarnations report themselves; declared ones
       are credited from their last ledger report, with everything after
       it redone (and counted) by whoever ran the recovery leases *)
    total_paths = Transport.credit_paths transport + sum_live (fun s -> s.sm_paths);
    total_errors = Transport.credit_errors transport + sum_live (fun s -> s.sm_errors);
    useful_instrs = sum (fun s -> s.sm_useful);
    replay_instrs = sum (fun s -> s.sm_replay);
    broken_replays = sum (fun s -> s.sm_broken);
    transfers = !transfers;
    steals = !steals;
    status_reports = !status_reports;
    jobs_sent = sum (fun s -> s.sm_sent);
    jobs_received = sum (fun s -> s.sm_received);
    crashes = Transport.crashes transport;
    recovered_jobs = Transport.recovered_jobs transport;
    retransmits = Transport.retransmits transport;
    recovery_replay_instrs = sum (fun s -> s.sm_recovery_replay);
    coverage_vector;
    final_coverage =
      Engine.Coverage.(fraction ~coverable:coverable_lines (popcount coverage_vector));
    per_worker_useful =
      List.filter_map (fun (i, inc, s) -> if live i inc then Some (i, s.sm_useful) else None) joined;
    solver_stats = agg;
    per_worker_solver =
      List.filter_map (fun (i, inc, s) -> if live i inc then Some (i, s.sm_solver) else None) joined;
    store_locks = Smt.Solver.Store.lock_stats store;
  }
