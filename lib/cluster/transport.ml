(* The coordinator shared by both cluster runtimes: the one load
   balancer (paper sections 3.1-3.3) and its lease ledger.

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

   This module owns that state; each backend supplies the moving parts
   it alone understands through an {!ops} record: how to put a leased
   batch on its (lossy) wire, how to install bans on live workers, which
   workers can accept recovery jobs, and how to crash-stop one of them.
   [begin_crash] runs the backend's teardown (drop the engine, filter
   undeliverable traffic) and the transport completes the balancer and
   ledger half, so neither backend can get the ordering wrong. *)

type ops = {
  nworkers : int;
  send_jobs :
    src:int -> lease:int -> dst:int -> batch:Job.batch -> recovery:bool -> resend:bool -> unit;
  install_bans : Job.t list -> int list;
  live_workers : unit -> (int * int) list;
  begin_crash : worker:int -> bool;
}

(* Every batch leaving the coordinator is factored here — prefix handoff
   is a transport property, not a backend one, so the simulated driver
   and the real-domain runtime ship (and their receivers decode) the
   exact same codec.  The ledger keeps accounting in full root paths;
   only the wire carries the factored form. *)
let to_batch jobs = Job.batch_of_jobs jobs

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
}

let create ?base_timeout ?max_attempts ?(initial_bans = []) ?(starved_only = false) ?obs ops =
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
  }

(* Re-seed orphaned jobs as recovery leases, spread over the live
   workers least-loaded first; parked until a worker is alive. *)
let route_recovery t ~now orphans =
  if orphans <> [] then begin
    let live =
      List.sort (fun (_, a) (_, b) -> compare a b) (t.ops.live_workers ())
    in
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

(* Lease and send a rebalancing transfer.  The sent-out record must be
   updated first: if [src] crashes before its next report, recovery must
   not re-seed (and live workers must drop) the nodes it just gave
   away.  [recovery] marks failure-path transfers (e.g. a batch
   re-routed around a dead thief) so the destination books their replay
   with the recovery cost, not ordinary rebalancing. *)
let issue_transfer ?(recovery = false) t ~src ~dst ~jobs ~now =
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
