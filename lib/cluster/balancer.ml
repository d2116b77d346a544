(* The Cloud9 load balancer (paper section 3.3).

   Workers periodically report their queue length (number of candidate
   nodes) and their coverage bit vector.  The balancer classifies workers
   as underloaded / overloaded by mean and standard deviation, pairs them
   from the two ends of the sorted list, and issues transfer requests
   <source, destination, job count>.  It also maintains the global
   coverage overlay: reported vectors are OR-ed in, and the merged vector
   is returned to the reporting worker so its local strategy can pursue
   the global goal. *)

type request = { src : int; dst : int; count : int }

type t = {
  delta : float; (* the delta constant of the classification rule *)
  starved_only : bool; (* feed only workers that reported an empty queue *)
  queues : (int, int) Hashtbl.t; (* worker id -> last reported queue length *)
  last_report : (int, int) Hashtbl.t; (* worker id -> tick of last report *)
  mutable global_coverage : Bytes.t; (* grows to the vectors' length on the first merge *)
  mutable enabled : bool; (* Fig. 13 disables balancing mid-run *)
  obs : Obs.Sink.t option;
  queue_mean : Obs.Metrics.gauge option;  (* resolved at create *)
  queue_sigma : Obs.Metrics.gauge option;
}

let create ?(delta = 0.5) ?(starved_only = false) ?obs () =
  {
    delta;
    starved_only;
    queues = Hashtbl.create 16;
    last_report = Hashtbl.create 16;
    global_coverage = Bytes.create 0;
    enabled = true;
    obs;
    queue_mean = Option.map (fun s -> Obs.Metrics.gauge (Obs.Sink.metrics s) "lb_queue_mean") obs;
    queue_sigma =
      Option.map (fun s -> Obs.Metrics.gauge (Obs.Sink.metrics s) "lb_queue_sigma") obs;
  }

let disable t = t.enabled <- false

let merge_coverage t coverage =
  t.global_coverage <- Engine.Coverage.union_into t.global_coverage coverage

(* A worker status update: merge coverage, remember the queue length, and
   return the current global coverage for the worker to merge back. *)
let report ?(tick = 0) t ~worker ~queue_len ~coverage =
  Hashtbl.replace t.queues worker queue_len;
  Hashtbl.replace t.last_report worker tick;
  merge_coverage t coverage;
  Bytes.copy t.global_coverage

let forget t ~worker =
  Hashtbl.remove t.queues worker;
  Hashtbl.remove t.last_report worker

(* Compute transfer requests from the last reported queue lengths.  Pairs
   are matched from the ends of the queue-length-sorted worker list; each
   pair <Wi, Wj> with li < lj moves (lj - li) / 2 jobs (paper 3.3).
   When [now]/[staleness] are given, workers whose last report is older
   than [staleness] ticks are skipped entirely: a departed or silent
   worker's stale queue length must neither skew the mean/sigma
   classification nor attract transfers it cannot acknowledge. *)
let rebalance ?now ?(staleness = max_int) t =
  if not t.enabled then []
  else begin
    let fresh w =
      match now with
      | None -> true
      | Some now -> (
        match Hashtbl.find_opt t.last_report w with
        | Some at -> now - at <= staleness
        | None -> false)
    in
    let entries =
      Hashtbl.fold (fun w l acc -> if fresh w then (w, l) :: acc else acc) t.queues []
    in
    let nworkers = List.length entries in
    if nworkers < 2 then []
    else begin
      let lens = List.map (fun (_, l) -> float_of_int l) entries in
      let mean = List.fold_left ( +. ) 0.0 lens /. float_of_int nworkers in
      let var =
        List.fold_left (fun acc l -> acc +. ((l -. mean) ** 2.0)) 0.0 lens
        /. float_of_int nworkers
      in
      let sigma = sqrt var in
      (match t.queue_mean with Some g -> Obs.Metrics.set g mean | None -> ());
      (match t.queue_sigma with Some g -> Obs.Metrics.set g sigma | None -> ());
      let lo = Float.max (mean -. (t.delta *. sigma)) 0.0 in
      let hi = mean +. (t.delta *. sigma) in
      let sorted = List.sort (fun (_, a) (_, b) -> compare a b) entries in
      let under =
        List.filter (fun (_, l) -> l = 0 || ((not t.starved_only) && float_of_int l < lo)) sorted
      in
      let over =
        List.filter (fun (_, l) -> float_of_int l > hi && l >= 2) (List.rev sorted)
      in
      let rec pair acc under over =
        match (under, over) with
        | (wi, li) :: under', (wj, lj) :: over'
          when wi <> wj && lj > li + 1 && (li = 0 || lj >= (2 * li) + 8) ->
          (* Deadband: a queue length measures *future* work, not
             starvation — a worker with 10 candidates against a peer's
             100 is still fully busy, and moving jobs between busy
             workers only converts useful exploration into replay.  So a
             non-empty destination must trail the source by at least 2x
             plus a constant before any transfer fires; with small
             clusters the mean±δσ rule alone degenerates (any imbalance
             classifies both ends) and dribbles jobs every round.

             Batched steal sizing.  A *starved* destination (empty queue)
             receives half the source's deque in one request — eager
             splitting: one steal round-trip moves a coherent subtree
             whose prefix-factored batch replays its shared prefix once,
             instead of dribbling jobs over many round-trips.  A merely
             underloaded destination gets half the difference, capped at
             a quarter of the source's queue: uncapped moves between
             busy workers churn states faster than they can be
             explored. *)
          let count =
            let raw =
              if li = 0 then max 1 (lj / 2)
              else min ((lj - li) / 2) (max 1 (lj / 4))
            in
            (* Absolute cap: each transferred candidate is a whole
               subtree, so a starved worker is saturated by a dozen
               nodes; moving half of a 150-node queue pre-pays replay
               for work the thief will never get to before re-export. *)
            min raw 8
          in
          (* A rich source can serve several starved destinations in one
             round (initial work spread must not take O(nworkers)
             rounds): keep it in the over list with its remaining queue
             until the deadband stops qualifying it. *)
          let over'' = if lj - count > 1 then (wj, lj - count) :: over' else over' in
          pair ({ src = wj; dst = wi; count } :: acc) under' over''
        | _ :: under', over -> pair acc under' over
        | [], _ -> acc
      in
      let reqs = pair [] under over in
      (* optimistically update the ledger so the next round does not
         re-issue the same transfers before fresh reports arrive *)
      List.iter
        (fun { src; dst; count } ->
          Hashtbl.replace t.queues src (max 0 ((Hashtbl.find t.queues src) - count));
          Hashtbl.replace t.queues dst (Hashtbl.find t.queues dst + count);
          match t.obs with
          | Some s -> Obs.Sink.event s (Obs.Event.Transfer_request { src; dst; count })
          | None -> ())
        reqs;
      reqs
    end
  end

let global_coverage t = Bytes.copy t.global_coverage
