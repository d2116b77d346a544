(* The load balancer's lease ledger: the recovery half of the paper's
   robustness claim (sections 3.1-3.3).

   Jobs are path-encoded, so a byte-cheap copy of every job the balancer
   routes is enough to reconstruct any lost subtree by lazy replay.  The
   ledger therefore keeps:

   - a *lease* per routed job batch: the path copies, the destination,
     and delivery/retransmission state.  A lease is acknowledged when the
     destination confirms receipt and *released* only when a later status
     report from the destination arrives — at that point the jobs are
     reflected in the worker's reported frontier digest (still pending)
     or in its reported completed-path counters (done), so the copy is no
     longer the only record of the subtree;

   - each worker's last *status report*: its frontier digest (the root
     paths of all candidate nodes, including a job mid-replay) plus its
     cumulative completed-path and error counters.  The report is the
     durable recovery point: on a crash, everything the worker did after
     its last report is lost and will be redone;

   - the paths each worker transferred *out* since its last report.
     Without these, re-seeding a stale digest would re-explore subtrees
     the dead worker had already handed to live workers, double-counting
     paths.  Exact matches are subtracted from the recovery set and the
     rest are returned as *bans*: fork products a recovery worker must
     drop because another worker owns them.

   Invariant: every routed job (including the initial root seed) is
   covered at all times by an unreleased lease or by its owner's last
   report.  [on_crash] computes the orphan set from exactly those two
   sources, which is why a crash loses no subtree and re-seeds none
   twice. *)

module Path = Engine.Path

type lease = {
  lease_id : int;
  l_dst : int;
  l_jobs : Job.t list;
  l_recovery : bool;          (* re-seeded after a failure (not a rebalance) *)
  mutable delivered : int option;  (* ack received; tick of delivery *)
  mutable last_send : int;
  mutable attempts : int;     (* sends so far (first send included) *)
}

type report = {
  r_tick : int;
  r_digest : Job.t list;
  r_paths : int;
  r_errors : int;
}

type t = {
  base_timeout : int;   (* ticks before the first retransmission *)
  max_attempts : int;   (* sends before the lease is declared failed *)
  mutable next_id : int;
  leases : (int, lease) Hashtbl.t;
  reports : (int, report) Hashtbl.t;       (* worker -> last status report *)
  sent_out : (int, Job.t list) Hashtbl.t;  (* worker -> paths sent since report *)
  mutable retransmits : int;
  obs : Obs.Sink.t option;
  retransmit_counter : Obs.Metrics.counter option; (* resolved at create *)
}

let create ?(base_timeout = 16) ?(max_attempts = 5) ?obs () =
  {
    base_timeout;
    max_attempts;
    next_id = 0;
    leases = Hashtbl.create 64;
    reports = Hashtbl.create 16;
    sent_out = Hashtbl.create 16;
    retransmits = 0;
    obs;
    retransmit_counter =
      Option.map (fun s -> Obs.Metrics.counter (Obs.Sink.metrics s) "lease_retransmits") obs;
  }

let emit t ev = match t.obs with None -> () | Some s -> Obs.Sink.event s ev

let issue t ~dst ~jobs ~now ~recovery =
  let id = t.next_id in
  t.next_id <- id + 1;
  Hashtbl.replace t.leases id
    { lease_id = id; l_dst = dst; l_jobs = jobs; l_recovery = recovery;
      delivered = None; last_send = now; attempts = 1 };
  emit t (Obs.Event.Lease_grant { lease = id; dst; jobs = List.length jobs; recovery });
  id

(* Unknown ids are ignored: acks may trail a crash that canceled the
   lease, or duplicate a previous ack. *)
let mark_delivered t ~lease ~now =
  match Hashtbl.find_opt t.leases lease with
  | Some l ->
    if l.delivered = None then begin
      l.delivered <- Some now;
      emit t (Obs.Event.Lease_ack { lease })
    end
  | None -> ()

let record_sent_out t ~src ~jobs =
  if jobs <> [] then
    Hashtbl.replace t.sent_out src
      (jobs @ Option.value ~default:[] (Hashtbl.find_opt t.sent_out src))

(* [received] is the worker's cumulative acknowledgement, piggybacked on
   the reliable report channel: every lease id it has ever processed.  It
   releases leases whose network acks were all lost — essential for
   exactness, because such a payload is already reflected in this
   report's digest and counters, and re-seeding its root on a crash
   would re-explore (and re-count) the subtree. *)
let record_report ?(received = []) t ~worker ~tick ~digest ~paths ~errors =
  Hashtbl.replace t.reports worker { r_tick = tick; r_digest = digest; r_paths = paths; r_errors = errors };
  Hashtbl.remove t.sent_out worker;
  (* the report supersedes every lease its worker had processed when it
     was taken: those jobs now live in the digest or in the completed
     counters *)
  let released =
    Hashtbl.fold
      (fun id l acc ->
        if l.l_dst = worker then
          match l.delivered with
          | Some dt when dt <= tick -> id :: acc
          | _ -> if List.mem id received then id :: acc else acc
        else acc)
      t.leases []
  in
  List.iter
    (fun id ->
      emit t (Obs.Event.Lease_release { lease = id; dst = worker });
      Hashtbl.remove t.leases id)
    released

(* Retransmission sweep.  A lease still awaiting its ack past the backoff
   deadline (base_timeout doubling per attempt) is either resent or, once
   [max_attempts] sends are spent, failed.  A failed lease stays in the
   table: the caller must evict its destination, and [on_crash] then
   collects the lease with the rest of the victim's state.  Removing it
   here instead would lose track of a payload that did arrive but whose
   acks were all lost — re-routing it blindly would explore the subtree
   twice. *)
let tick_timeouts t ~now =
  let resend = ref [] and failed = ref [] in
  Hashtbl.iter
    (fun _ l ->
      if l.delivered = None then begin
        let deadline = l.last_send + (t.base_timeout lsl (l.attempts - 1)) in
        if now >= deadline then
          if l.attempts >= t.max_attempts then begin
            emit t (Obs.Event.Lease_evict { lease = l.lease_id; dst = l.l_dst });
            failed := l :: !failed
          end
          else begin
            l.attempts <- l.attempts + 1;
            l.last_send <- now;
            t.retransmits <- t.retransmits + 1;
            (match t.retransmit_counter with Some c -> Obs.Metrics.incr c | None -> ());
            emit t
              (Obs.Event.Lease_retransmit
                 { lease = l.lease_id; dst = l.l_dst; attempt = l.attempts });
            resend := l :: !resend
          end
      end)
    t.leases;
  (!resend, !failed)

(* Leases whose jobs may still be in flight (no ack yet).  Delivered
   leases do not block exhaustion: their jobs sit in a live frontier or
   are already explored. *)
let pending t =
  Hashtbl.fold (fun _ l acc -> if l.delivered = None then acc + 1 else acc) t.leases 0

(* Jobs of the leases still crossing the wire to [dst]. *)
let in_flight_jobs t ~dst =
  Hashtbl.fold
    (fun _ l acc -> if l.l_dst = dst && l.delivered = None then acc + List.length l.l_jobs else acc)
    t.leases 0

let retransmits t = t.retransmits

type recovery = {
  credit_paths : int;   (* completed paths confirmed by the last report *)
  credit_errors : int;
  orphans : Job.t list; (* subtrees to re-seed on live workers *)
  bans : Job.t list;    (* fork products owned elsewhere; drop on discovery *)
}

let on_crash t ~worker =
  let sent = Option.value ~default:[] (Hashtbl.find_opt t.sent_out worker) in
  let sent_keys = Hashtbl.create (List.length sent) in
  List.iter (fun p -> Hashtbl.replace sent_keys (Path.to_string p) ()) sent;
  let keep p = not (Hashtbl.mem sent_keys (Path.to_string p)) in
  let credit_paths, credit_errors, digest =
    match Hashtbl.find_opt t.reports worker with
    | Some r -> (r.r_paths, r.r_errors, List.filter keep r.r_digest)
    | None -> (0, 0, [])
  in
  (* every lease routed to the dead worker is orphaned, acknowledged or
     not.  The digest and the leases can overlap: a payload that arrived
     but whose acks were all lost is both in the digest (reported) and
     still leased (never marked delivered) — so the union is deduplicated
     by exact path, which is safe because equal paths name the same node *)
  let leased =
    Hashtbl.fold
      (fun id l acc -> if l.l_dst = worker then (id, List.filter keep l.l_jobs) :: acc else acc)
      t.leases []
  in
  List.iter (fun (id, _) -> Hashtbl.remove t.leases id) leased;
  Hashtbl.remove t.reports worker;
  Hashtbl.remove t.sent_out worker;
  let seen = Hashtbl.create 32 in
  let orphans =
    List.filter
      (fun p ->
        let k = Path.to_string p in
        if Hashtbl.mem seen k then false else (Hashtbl.replace seen k (); true))
      (digest @ List.concat_map snd leased)
  in
  { credit_paths; credit_errors; orphans; bans = sent }
