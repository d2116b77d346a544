(** The load balancer's lease ledger — the recovery half of the paper's
    robustness claim.  Jobs are path-encoded, so the ledger can keep a
    byte-cheap copy of every job batch it routes (a {e lease}) together
    with each worker's last-reported frontier digest; on a crash these
    two sources reconstruct exactly the dead worker's unexplored region,
    losing no subtree and re-seeding none twice (see DESIGN.md,
    "Failure semantics"). *)

type lease = {
  lease_id : int;
  l_dst : int;
  l_jobs : Job.t list;
  l_recovery : bool;  (** re-seeded after a failure (not a rebalance) *)
  mutable delivered : int option;  (** tick the ack arrived *)
  mutable last_send : int;
  mutable attempts : int;  (** sends so far (first send included) *)
}

type t

(** [base_timeout] is the tick count before the first retransmission
    (doubling per attempt); after [max_attempts] sends the lease fails
    and its jobs must be re-routed.  [obs] traces the lease life cycle
    (grant / ack / release / retransmit / evict) and counts retransmits. *)
val create : ?base_timeout:int -> ?max_attempts:int -> ?obs:Obs.Sink.t -> unit -> t

(** Lease a job batch routed to [dst]; returns the lease id carried by
    the transfer message and its acknowledgement. *)
val issue : t -> dst:int -> jobs:Job.t list -> now:int -> recovery:bool -> int

(** Record the destination's acknowledgement.  Unknown ids are ignored
    (late acks for canceled leases, duplicate acks). *)
val mark_delivered : t -> lease:int -> now:int -> unit

(** Record paths [src] transferred out, until its next status report.
    Needed so crash recovery does not re-seed subtrees the dead worker
    had already handed to live workers. *)
val record_sent_out : t -> src:int -> jobs:Job.t list -> unit

(** A worker status report: stores the frontier digest and cumulative
    counters as the worker's durable recovery point, clears its sent-out
    record, and releases every lease delivered at or before [tick] — as
    well as every lease in [received], the worker's cumulative list of
    processed lease ids.  The latter is the piggybacked acknowledgement
    that keeps the ledger exact when every network ack of a delivered
    batch was lost: the batch is covered by this report, so it must not
    be re-seeded on a crash. *)
val record_report :
  ?received:int list ->
  t ->
  worker:int ->
  tick:int ->
  digest:Job.t list ->
  paths:int ->
  errors:int ->
  unit

(** Retransmission sweep: [(resend, failed)].  [resend] leases had their
    attempt count and send time bumped — send their jobs again with the
    same lease id.  [failed] leases exhausted [max_attempts]; they stay
    in the table and the caller must evict their destination, so that
    {!on_crash} re-seeds the jobs exactly once even when the payload
    actually arrived but every ack was lost. *)
val tick_timeouts : t -> now:int -> lease list * lease list

(** Number of leases whose jobs may still be in flight (unacknowledged).
    Nonzero blocks the [Exhaust] goal. *)
val pending : t -> int

(** Jobs of the unacknowledged leases routed to [dst]. *)
val in_flight_jobs : t -> dst:int -> int

val retransmits : t -> int

type recovery = {
  credit_paths : int;  (** completed paths confirmed by the last report *)
  credit_errors : int;
  orphans : Job.t list;  (** subtrees to re-seed on live workers *)
  bans : Job.t list;
      (** paths the dead worker sent out since its last report: another
          worker owns them, so recovery workers must drop these exact
          nodes when a fork re-creates them *)
}

(** Compute the dead worker's recovery set from its last report and its
    outstanding leases (both filtered by the sent-out record and
    deduplicated by exact path), credit its last-reported counters, and
    forget all its ledger state. *)
val on_crash : t -> worker:int -> recovery
