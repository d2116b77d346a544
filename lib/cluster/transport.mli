(** The coordinator shared by the virtual-time {!Driver} and the
    real-domain {!Parallel} runtime: the one load balancer (paper
    sections 3.1-3.3) with its lease ledger, and the fault plane.
    Neither backend touches the {!Balancer}, the {!Ledger} or the
    {!Faultplan} runtime itself; each keeps only its message plane and
    its clock.

    Status reports merge into the balancer's queue view and coverage
    overlay and become the reporter's durable recovery point.  Every
    routed job batch is leased, with at-least-once retransmission and
    exponential backoff; a destination that exhausts the retransmit
    budget is evicted, and a crash is recovered exactly (forget the
    victim in the balancer, credit its last-reported counters, ban the
    nodes it handed away, re-seed its orphans on live workers, parking
    them while none is alive).  The fault plan means the same thing on
    both backends: {!run_schedule} applies its crashes and rejoins,
    every message crossing a {!wire} gets one seeded {!Faultplan.fate},
    and {!stranded} is the one stop rule for a cluster no worker can
    revive.  A backend plugs in the parts only it understands via
    {!ops}. *)

type ops = {
  nworkers : int;
  send_jobs :
    src:int -> lease:int -> dst:int -> batch:Job.batch -> recovery:bool -> resend:bool -> unit;
      (** put a leased, prefix-factored batch on the backend's (lossy)
          wire — the transport factors every outgoing batch so both
          backends ship the same {!Job.encode_batch} codec.  [src] is
          {!Faultplan.lb} for ledger (re)sends and recovery seeds;
          [resend] marks retransmissions of an existing lease *)
  install_bans : Job.t list -> int list;
      (** warn every live worker off these exact nodes (a crashed worker
          had sent them out after its last report); returns the workers
          that could not take them, which the transport crash-stops *)
  live_workers : unit -> (int * int) list;
      (** [(id, queue_len)] of workers able to accept recovery jobs *)
  begin_crash : worker:int -> bool;
      (** backend teardown for a crash-stop: drop the engine, filter
          undeliverable traffic.  Returns [false] when the slot is not
          crashable (already dead, never alive, or out of range) — the
          transport then does nothing. *)
  rejoin : worker:int -> bans:Job.t list -> unit;
      (** start a fresh engine (or incarnation) in slot [worker] with
          the cumulative ban list installed, if the slot is dead; a
          no-op on a live one *)
}

type t

(** {2 The lossy wire}

    Messages of type ['m] in transit, each with the tick it is due.  A
    backend builds one wire from its fault plan, hands it to {!create},
    and delivers what {!due} returns; every message posted on it gets
    one fate from the plan's seeded runtime, so the seed fixes the whole
    run. *)

type 'm wire

(** An empty wire under [faults], with the plan's runtime (the fate
    stream and the crash/rejoin schedule) that {!create} takes over. *)
val wire : Faultplan.t -> 'm wire

(** Post [m] from [src] to [dst], due at tick [at], under one
    {!Faultplan.fate} drawn at [now]: dropped, delayed past [at], or
    due twice.  Returns the copies queued (0, 1 or 2). *)
val send : 'm wire -> now:int -> src:int -> dst:int -> at:int -> 'm -> int

(** Remove and return the messages due by [now]: the most recently
    posted first, a duplicate's original before its copy. *)
val due : 'm wire -> now:int -> 'm list

(** Nothing in transit. *)
val idle : 'm wire -> bool

(** Messages (copies included) still in transit. *)
val in_transit : 'm wire -> int

(** Drop every message in transit that fails the predicate (traffic a
    crash made undeliverable). *)
val retain : 'm wire -> ('m -> bool) -> unit

(** [initial_bans] pre-loads the cumulative ban list — a campaign restore
    imports the checkpointed set so freshly spawned workers inherit it
    through {!bans} exactly as rejoining workers do.  [starved_only]
    (default false) feeds only workers that reported an empty queue, and
    counts the jobs still crossing the wire to a worker as queued there
    (see {!Balancer.create}).  The transport runs the schedule of
    [wire]'s fault plan, from the runtime that draws the fates of every
    message posted on [wire].

    @raise Invalid_argument when [wire]'s plan fails
      {!Faultplan.validate} against [ops.nworkers]. *)
val create :
  ?base_timeout:int ->
  ?max_attempts:int ->
  ?initial_bans:Job.t list ->
  ?starved_only:bool ->
  ?obs:Obs.Sink.t ->
  wire:'m wire ->
  ops ->
  t

(** A worker's status report: its frontier digest and cumulative
    path/error counters become its recovery point in the ledger,
    [received] (every lease id it has imported, [Worker.imported_leases])
    releases the leases whose acks were all lost, and its queue length
    and coverage go to the balancer.  Returns the merged global coverage
    for the worker to fold back into its strategy. *)
val report :
  t ->
  worker:int ->
  tick:int ->
  queue_len:int ->
  coverage:Bytes.t ->
  digest:Job.t list ->
  paths:int ->
  errors:int ->
  received:int list ->
  Bytes.t

(** A destination's acknowledgement of lease [lease].  Unknown ids (late
    or duplicate acks) are ignored. *)
val ack : t -> lease:int -> now:int -> unit

(** A transfer request: move [count] jobs from [src] to [dst]. *)
type request = Balancer.request = { src : int; dst : int; count : int }

(** The balancer's transfer requests from the last reports (see
    {!Balancer.rebalance}). *)
val rebalance : ?now:int -> ?staleness:int -> t -> request list

(** Stop issuing transfer requests (Fig. 13's mid-run disable). *)
val disable_balancing : t -> unit

(** The global coverage overlay after OR-ing [vectors] into it (engines'
    vectors may be ahead of their last reports); a copy. *)
val global_coverage : t -> Bytes.t list -> Bytes.t

(** Crash-stop [worker]: runs [ops.begin_crash], then forgets it in the
    balancer, credits its last reported counters, installs bans, and
    re-seeds its orphans. *)
val handle_crash : t -> now:int -> worker:int -> unit

(** Periodic sweep: retransmit overdue leases, evict destinations that
    exhausted the budget (through {!handle_crash}), and re-route parked
    orphans once a worker is alive again. *)
val tick : t -> now:int -> unit

(** Apply the fault plan's schedule at tick [now]: {!handle_crash} each
    worker crashing then, and [ops.rejoin] each whose rejoin delay
    elapses then.  Call once per tick, in tick order. *)
val run_schedule : t -> now:int -> unit

(** No worker is alive ([ops.live_workers] is empty) and the plan
    crashes or rejoins nobody after [now]: the run should stop.  Always
    [false] before the first crash, since workers die only through
    {!handle_crash}, so a fault-free run never asks for the live list.
    A backend that joins workers late checks its own joins too. *)
val stranded : t -> now:int -> bool

(** Lease and send a rebalancing transfer from [src]; records the jobs
    as sent-out first so a crash of [src] stays exact.  A [dst] no
    longer live is replaced by the least-loaded live worker other than
    [src] (falling back to [src]), and the transfer is then booked as
    recovery: the destination books its replay as recovery cost.
    Returns the lease id. *)
val issue_transfer : t -> src:int -> dst:int -> jobs:Job.t list -> now:int -> int

(** Cover a seed batch with a delivered lease on [dst] (which already
    holds the jobs by construction), so a crash of the seed worker before
    its first report re-seeds the batch.  No-op on the empty list. *)
val seed_jobs : t -> dst:int -> jobs:Job.t list -> now:int -> unit

(** [seed_jobs] of the root job — the whole execution tree. *)
val seed_root : t -> dst:int -> now:int -> unit

(** No lease awaiting an ack and no orphan parked: the transport holds
    no in-flight work.  One conjunct of global exhaustion. *)
val quiesced : t -> bool

(** Leases awaiting an ack. *)
val pending_leases : t -> int

(** Jobs of the unacknowledged leases routed to [dst]. *)
val in_flight_jobs : t -> dst:int -> int

(** Cumulative ban list, for installing on freshly (re)joined workers. *)
val bans : t -> Job.t list

val parked_orphans : t -> int
val crashes : t -> int
val recovered_jobs : t -> int
val retransmits : t -> int

(** Paths / errors credited from crashed workers' last reports. *)
val credit_paths : t -> int

val credit_errors : t -> int
