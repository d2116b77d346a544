(* The coordinator shared by both cluster runtimes: the one load
   balancer (paper sections 3.1-3.3), its lease ledger, and the fault
   plane.

   The virtual-time {!Driver} and the real-domain {!Parallel} runtime
   move messages very differently (a simulated latency queue vs. real
   mutex+condition mailboxes), but everything the coordinator decides is
   the same: status reports merge into the {!Balancer} and become each
   worker's durable recovery point in the {!Ledger}; every routed job
   batch is leased, unacknowledged leases are retransmitted with
   exponential backoff, a destination that exhausts the retransmit
   budget is evicted through the crash path, and a crash forgets the
   victim in the balancer, credits its last reported counters, re-seeds
   its orphaned subtrees on live workers (parking them while none is
   alive), and bans the exact nodes the victim had already handed away.
   The fault plan is applied here too, once for both backends: the
   crash/rejoin schedule, the seeded fate of every message on the lossy
   {!wire}, and the rule that stops a run no worker can revive.

   This module owns that state; each backend supplies the moving parts
   it alone understands through an {!ops} record: how to put a leased
   batch on its wire, how to install bans on live workers, which
   workers can accept recovery jobs, how to crash-stop one of them and
   how to start a fresh one in a crashed slot.  [begin_crash] runs the
   backend's teardown (drop the engine, filter undeliverable traffic)
   and the transport completes the balancer and ledger half, so neither
   backend can get the ordering wrong. *)

type ops = {
  nworkers : int;
  send_jobs :
    src:int -> lease:int -> dst:int -> batch:Job.batch -> recovery:bool -> resend:bool -> unit;
  install_bans : Job.t list -> int list;
  live_workers : unit -> (int * int) list;
  begin_crash : worker:int -> bool;
  rejoin : worker:int -> bans:Job.t list -> unit;
}

(* Every batch leaving the coordinator is factored here — prefix handoff
   is a transport property, not a backend one, so the simulated driver
   and the real-domain runtime ship (and their receivers decode) the
   exact same codec.  The ledger keeps accounting in full root paths;
   only the wire carries the factored form. *)
let to_batch jobs = Job.batch_of_jobs jobs

(* The lossy wire: messages in transit with their due ticks, the most
   recent post first, so that among the messages due at once the newest
   is delivered first, and a duplicate's original before its copy.  The
   wire carries the fault plan and its one seeded runtime, which
   [create] validates and takes over for the schedule. *)
type 'm wire = {
  mutable transit : (int * 'm) list;
  plan : Faultplan.t;
  fates : Faultplan.runtime;
}

let wire plan = { transit = []; plan; fates = Faultplan.make plan }

(* One fate per send, drawn at [now]: a message due at [at] is lost, due
   later, or due twice (the copy trailing by the fate's lag).  Returns
   the copies queued. *)
let send w ~now ~src ~dst ~at m =
  match Faultplan.fate w.fates ~tick:now ~src ~dst with
  | Faultplan.Drop -> 0
  | Faultplan.Deliver extra ->
    w.transit <- (at + extra, m) :: w.transit;
    1
  | Faultplan.Duplicate lag ->
    w.transit <- (at, m) :: (at + lag, m) :: w.transit;
    2

let due w ~now =
  let due, later = List.partition (fun (at, _) -> at <= now) w.transit in
  w.transit <- later;
  List.map snd due

let idle w = w.transit = []
let in_transit w = List.length w.transit
let retain w keep = w.transit <- List.filter (fun (_, m) -> keep m) w.transit

type t = {
  ops : ops;
  ledger : Ledger.t;
  balancer : Balancer.t;
  starved_only : bool;
  mutable crashes : int;
  mutable recovered : int;
  mutable credit_paths : int;
  mutable credit_errors : int;
  mutable global_bans : Job.t list;
  mutable parked : Job.t list; (* orphans awaiting a live worker *)
  faults : Faultplan.runtime;
  horizon : int; (* last crash or rejoin tick of the plan *)
}

let create ?base_timeout ?max_attempts ?(initial_bans = []) ?(starved_only = false) ?obs ~wire
    ops =
  (match Faultplan.validate wire.plan ~nworkers:ops.nworkers with
  | Ok () -> ()
  | Error m -> invalid_arg ("Transport.create: " ^ m));
  {
    ops;
    ledger = Ledger.create ?base_timeout ?max_attempts ?obs ();
    balancer = Balancer.create ~starved_only ?obs ();
    starved_only;
    crashes = 0;
    recovered = 0;
    credit_paths = 0;
    credit_errors = 0;
    global_bans = initial_bans;
    parked = [];
    faults = wire.fates;
    horizon = Faultplan.horizon wire.plan;
  }

(* Live workers, least-loaded first; the sort is stable, so ties keep
   [ops.live_workers]' order and a run stays reproducible. *)
let least_loaded live = List.stable_sort (fun (_, a) (_, b) -> compare a b) live

(* Re-seed orphaned jobs as recovery leases, spread over the live
   workers least-loaded first; parked until a worker is alive. *)
let route_recovery t ~now orphans =
  if orphans <> [] then begin
    let live = least_loaded (t.ops.live_workers ()) in
    match live with
    | [] -> t.parked <- orphans @ t.parked
    | _ ->
      let n = List.length live in
      let chunks = Array.make n [] in
      List.iteri (fun k job -> chunks.(k mod n) <- job :: chunks.(k mod n)) orphans;
      List.iteri
        (fun k (dst, _) ->
          match chunks.(k) with
          | [] -> ()
          | jobs ->
            let lease = Ledger.issue t.ledger ~dst ~jobs ~now ~recovery:true in
            t.recovered <- t.recovered + List.length jobs;
            t.ops.send_jobs ~src:Faultplan.lb ~lease ~dst ~batch:(to_batch jobs) ~recovery:true
              ~resend:false)
        live
  end

(* Crash-stop a worker: the backend tears down its half ([begin_crash]
   returns [false] when the slot is not crashable — already dead, never
   alive, or out of range), then the ledger computes the recovery set:
   credit the victim's last-reported counters, warn live workers off the
   nodes it had handed away, and re-seed its orphaned subtrees. *)
let rec handle_crash t ~now ~worker =
  if t.ops.begin_crash ~worker then begin
    t.crashes <- t.crashes + 1;
    Balancer.forget t.balancer ~worker;
    let { Ledger.credit_paths; credit_errors; orphans; bans } =
      Ledger.on_crash t.ledger ~worker
    in
    t.credit_paths <- t.credit_paths + credit_paths;
    t.credit_errors <- t.credit_errors + credit_errors;
    if bans <> [] then begin
      t.global_bans <- bans @ t.global_bans;
      (* a live worker missing a ban could re-explore a transferred
         subtree: one that could not take it is crash-stopped, which is
         itself exact *)
      List.iter (fun worker -> handle_crash t ~now ~worker) (t.ops.install_bans bans)
    end;
    route_recovery t ~now orphans
  end

(* At-least-once delivery sweep: resend leases past their backoff
   deadline; a lease that exhausts its retransmit budget evicts its
   destination (the crash path keeps the re-route exact).  Orphans
   parked while no worker was alive are re-routed once one is. *)
and tick t ~now =
  let resend, failed = Ledger.tick_timeouts t.ledger ~now in
  List.iter
    (fun (l : Ledger.lease) ->
      t.ops.send_jobs ~src:Faultplan.lb ~lease:l.Ledger.lease_id ~dst:l.Ledger.l_dst
        ~batch:(to_batch l.Ledger.l_jobs) ~recovery:l.Ledger.l_recovery ~resend:true)
    resend;
  List.iter (fun (l : Ledger.lease) -> handle_crash t ~now ~worker:l.Ledger.l_dst) failed;
  if t.parked <> [] && t.ops.live_workers () <> [] then begin
    let orphans = t.parked in
    t.parked <- [];
    route_recovery t ~now orphans
  end

(* The plan's schedule at [now]: crash-stops first, then a fresh engine
   in each slot whose rejoin delay elapsed (a no-op on a live slot). *)
let run_schedule t ~now =
  List.iter (fun worker -> handle_crash t ~now ~worker) (Faultplan.crashes_at t.faults ~tick:now);
  List.iter
    (fun worker -> t.ops.rejoin ~worker ~bans:t.global_bans)
    (Faultplan.rejoins_at t.faults ~tick:now)

(* No worker is alive and the plan crashes or rejoins nobody after
   [now]: nothing can revive the cluster, so the run stops rather than
   spin (parked orphans are reported, not explored).  Workers die only
   through [handle_crash], so a run without a crash never asks for the
   live list. *)
let stranded t ~now = t.crashes > 0 && now >= t.horizon && t.ops.live_workers () = []

(* Lease and send a rebalancing transfer.  The sent-out record must be
   updated first: if [src] crashes before its next report, recovery must
   not re-seed (and live workers must drop) the nodes it just gave
   away.  A destination that died since the balancer asked is replaced
   by the least-loaded live worker other than [src] (falling back to
   [src]: its nodes are fenced there, so going home is just another
   transfer), and the transfer is booked as recovery: the destination
   books its replay with the recovery cost, not ordinary rebalancing. *)
let issue_transfer t ~src ~dst ~jobs ~now =
  let live = t.ops.live_workers () in
  let dst, recovery =
    if List.mem_assoc dst live then (dst, false)
    else
      match least_loaded (List.remove_assoc src live) with
      | (alt, _) :: _ -> (alt, true)
      | [] -> (src, true)
  in
  Ledger.record_sent_out t.ledger ~src ~jobs;
  let lease = Ledger.issue t.ledger ~dst ~jobs ~now ~recovery in
  t.ops.send_jobs ~src ~lease ~dst ~batch:(to_batch jobs) ~recovery ~resend:false;
  lease

(* Seed jobs are leased like any routed batch (and marked delivered on
   the spot — the receiving worker holds them by construction), so a
   crash of the seed worker before its first status report re-seeds the
   whole batch.  The root job is the classic case; a campaign restore
   seeds a whole checkpointed frontier the same way. *)
let seed_jobs t ~dst ~jobs ~now =
  if jobs <> [] then begin
    let lease = Ledger.issue t.ledger ~dst ~jobs ~now ~recovery:false in
    Ledger.mark_delivered t.ledger ~lease ~now
  end

let seed_root t ~dst ~now = seed_jobs t ~dst ~jobs:[ [] ] ~now

let ack t ~lease ~now = Ledger.mark_delivered t.ledger ~lease ~now

let in_flight_jobs t ~dst = Ledger.in_flight_jobs t.ledger ~dst

(* A status report is the worker's durable recovery point (digest and
   counters, with [received] as the piggybacked cumulative ack) and its
   balancer update.  Under [starved_only] the balancer sees the jobs
   still crossing the wire to the worker as queued: a worker already
   being fed is not starving. *)
let report t ~worker ~tick ~queue_len ~coverage ~digest ~paths ~errors ~received =
  Ledger.record_report ~received t.ledger ~worker ~tick ~digest ~paths ~errors;
  let queue_len = if t.starved_only then queue_len + in_flight_jobs t ~dst:worker else queue_len in
  Balancer.report ~tick t.balancer ~worker ~queue_len ~coverage

type request = Balancer.request = { src : int; dst : int; count : int }

let rebalance ?now ?staleness t = Balancer.rebalance ?now ?staleness t.balancer
let disable_balancing t = Balancer.disable t.balancer

let global_coverage t vectors =
  List.iter (Balancer.merge_coverage t.balancer) vectors;
  Balancer.global_coverage t.balancer

let quiesced t = t.parked = [] && Ledger.pending t.ledger = 0
let pending_leases t = Ledger.pending t.ledger
let bans t = t.global_bans
let parked_orphans t = List.length t.parked
let crashes t = t.crashes
let recovered_jobs t = t.recovered
let retransmits t = Ledger.retransmits t.ledger
let credit_paths t = t.credit_paths
let credit_errors t = t.credit_errors
