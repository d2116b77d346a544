(** The sink instrumented components write through: a shared metrics
    registry, trace ring and per-worker timeline, scoped to a worker id.

    A run creates one sink ([create], attributed to the load balancer)
    and derives per-worker views with [for_worker]; all views share the
    same core, so exports see the whole run.  The driver advances
    [set_now] once per virtual tick; emitters never pass timestamps.

    Components hold a [Sink.t option] and do nothing when it is [None],
    so disabled observability costs one branch per already-rare event. *)

type t

val create : ?trace_capacity:int -> ?bucket_ticks:int -> unit -> t

(** A view of the same core attributed to worker [wid].  Derived from a
    buffered view, the result shares that view's buffer. *)
val for_worker : t -> int -> t

(** A *buffered* view for worker [wid], safe to hand to another domain:
    events and timeline samples stage in a domain-private buffer (with a
    private metrics registry and clock) and reach the shared core only
    under the core's single lock — automatically when the buffer fills,
    and in {!flush}.  Call {!flush} once when the owning domain finishes;
    the private metrics registry is folded into the core exactly once. *)
val buffered : t -> int -> t

(** Drain a buffered view into the core (no-op on unbuffered views). *)
val flush : t -> unit

val worker : t -> int
val set_now : t -> int -> unit
val now : t -> int

val metrics : t -> Metrics.t
val trace : t -> Trace.t
val timeline : t -> Timeline.t

(** Record [ev] at the current tick, attributed to this view's worker. *)
val event : t -> Event.t -> unit

(** Feed the timeline one sample of *cumulative* per-worker counters
    (see {!Timeline.observe}) at the current tick. *)
val observe :
  t ->
  useful:int ->
  replay:int ->
  idle:int ->
  depth:int ->
  queries:int ->
  sat_calls:int ->
  unit

(** Record a completed wall-clock span (real nanoseconds from
    {!Clock.now_ns}), attributed to this view's worker.  Buffered views
    stage it domain-privately; spans land in a bounded ring in the core
    and export as Chrome "X" complete events.  Used by {!Profile} on
    true multicore runs; the simulated driver never calls this. *)
val span : t -> name:string -> start_ns:int -> stop_ns:int -> unit

(** {!Clock.now_ns} at [create]; real-ns spans export relative to it. *)
val epoch_ns : t -> int

(** Register a named export-time sample provider, appended to
    {!metrics_samples}.  Replaces any provider with the same name, so
    registering from every per-domain component is idempotent.  Used for
    stats that live in global state outside any registry (e.g. the
    hashcons shard-lock probe in [Smt.Expr]). *)
val set_provider : t -> name:string -> (unit -> Metrics.sample list) -> unit

(** Chrome [trace_event] JSON (one array; load in chrome://tracing or
    Perfetto), on a dual time base: timeline buckets as "C" counter
    series and ring events as "i" instants at 1 tick = {!Clock.tick_ns}
    of trace time; real-nanosecond spans as "X" complete events relative
    to {!epoch_ns}.  Both halves share one microsecond axis. *)
val write_chrome_trace : t -> out_channel -> unit

(** Registry snapshot plus per-worker timeline totals
    ([worker_useful_instrs] etc.), the core-lock contention probe
    ([obs_core_lock_acquisitions{outcome=...}]) and any registered
    provider samples, one JSON object per line. *)
val write_metrics_jsonl : t -> out_channel -> unit

(** The samples behind [write_metrics_jsonl]. *)
val metrics_samples : t -> Metrics.snapshot
