(* The wall-clock profiler for the true multicore runtime.

   A Profile.t is a per-domain front-end over a (usually buffered) sink:
   it resolves one latency_ns histogram handle per span kind at
   construction, so recording a span on the hot path is two Clock reads
   plus one histogram bucket update — and, for the coarse kinds, one
   staged Sink.span that becomes an "X" event in the Chrome trace.

   Components hold a [Profile.t option]; [start] on [None] returns 0
   without touching the clock and [record] on [None] is a no-op, so a
   run without profiling pays one branch per probe site.

   Durations are clamped to >= 0: Clock.now_ns is not forced monotonic
   (see clock.ml), so a rare backwards step must not poison a histogram
   with a huge wrapped value. *)

type kind =
  | Mailbox_wait  (* worker domain blocked on its empty inbox *)
  | Steal_rtt  (* coordinator issued Steal -> victim's Jobs arrived at thief *)
  | Job_replay  (* replaying a transferred job from its path encoding *)
  | Recovery_replay  (* replaying an orphaned job recovered from the ledger *)
  | Quiesce_round  (* one coordinator loop: status drain + rebalance *)
  | Solver_query of Event.solver_tier

type t = {
  sink : Sink.t;
  h_mailbox : Metrics.histogram;
  h_steal : Metrics.histogram;
  h_replay : Metrics.histogram;
  h_recovery : Metrics.histogram;
  h_quiesce : Metrics.histogram;
  h_tiers : (Event.solver_tier * Metrics.histogram) list;
}

let kind_name = function
  | Mailbox_wait -> "mailbox_wait"
  | Steal_rtt -> "steal_rtt"
  | Job_replay -> "job_replay"
  | Recovery_replay -> "recovery_replay"
  | Quiesce_round -> "quiesce_round"
  | Solver_query _ -> "solver_query"

let all_tiers =
  Event.[ Trivial; Sat_cache; Cex_cache; Det_cache; Sat_call ]

(* Histograms register find-or-create, so several profiles over the same
   registry (a worker's and its solver's, say) share handles. *)
let create sink =
  let m = Sink.metrics sink in
  let h ?(extra = []) kname =
    Metrics.histogram m
      ~labels:(("kind", kname) :: extra)
      ~buckets:Metrics.latency_ns_buckets "latency_ns"
  in
  {
    sink;
    h_mailbox = h "mailbox_wait";
    h_steal = h "steal_rtt";
    h_replay = h "job_replay";
    h_recovery = h "recovery_replay";
    h_quiesce = h "quiesce_round";
    h_tiers =
      List.map
        (fun tier -> (tier, h ~extra:[ ("tier", Event.tier_to_string tier) ] "solver_query"))
        all_tiers;
  }

let hist p = function
  | Mailbox_wait -> p.h_mailbox
  | Steal_rtt -> p.h_steal
  | Job_replay -> p.h_replay
  | Recovery_replay -> p.h_recovery
  | Quiesce_round -> p.h_quiesce
  | Solver_query tier -> (
    match List.assq_opt tier p.h_tiers with Some h -> h | None -> assert false)

(* Solver queries are orders of magnitude more frequent than the other
   kinds; a span per query would churn the ring and dominate flush
   traffic for no reading value.  Their latency lives in the per-tier
   histograms only. *)
let span_worthy = function Solver_query _ -> false | _ -> true

let start = function None -> 0 | Some _ -> Clock.now_ns ()

let record popt kind ~start_ns =
  match popt with
  | None -> 0
  | Some p ->
    let stop_ns = Clock.now_ns () in
    Metrics.observe (hist p kind) (float_of_int (max 0 (stop_ns - start_ns)));
    if span_worthy kind then Sink.span p.sink ~name:(kind_name kind) ~start_ns ~stop_ns;
    stop_ns
