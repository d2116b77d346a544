(* The sink every instrumented component writes through.

   One shared core (registry + trace ring + timeline + current virtual
   tick) is created per run; [for_worker] wraps it with a worker id so
   events and timeline samples are attributed without the component
   threading its own id around.  The cluster driver advances [set_now]
   once per tick, so hot-path emitters never pass a timestamp. *)

(* A completed wall-clock span, in real nanoseconds (Clock.now_ns).
   Spans come from the profiling layer (Profile.record) on true
   multicore runs; the simulated driver never emits them, so its traces
   stay purely tick-based. *)
type span = { sp_worker : int; sp_name : string; sp_start_ns : int; sp_stop_ns : int }

(* Bounded ring of spans: old spans are overwritten, like the trace
   ring, so a long run cannot grow the core without bound. *)
type span_ring = { sarr : span option array; mutable snext : int; mutable stotal : int }

let span_cap = 32_768

let span_ring_create () = { sarr = Array.make span_cap None; snext = 0; stotal = 0 }

let span_ring_add r sp =
  r.sarr.(r.snext) <- Some sp;
  r.snext <- (r.snext + 1) mod span_cap;
  r.stotal <- r.stotal + 1

(* Oldest first. *)
let span_ring_contents r =
  let out = ref [] in
  for i = span_cap - 1 downto 0 do
    match r.sarr.((r.snext + i) mod span_cap) with
    | Some sp -> out := sp :: !out
    | None -> ()
  done;
  List.rev !out

type core = {
  metrics : Metrics.t;
  trace : Trace.t;
  timeline : Timeline.t;
  spans : span_ring;
  epoch_ns : int;  (* Clock.now_ns at [create]; real-ns spans export relative to this *)
  mutable now : int;
  lock : Mutex.t;  (* serializes buffered-view flushes into the core *)
  (* Contention probe on [lock] itself: flushes try-lock first and count
     which way it went, so the overhead of observability is observable. *)
  lk_uncontended : int Atomic.t;
  lk_contended : int Atomic.t;
  h_flush : Metrics.histogram;  (* latency_ns{kind=obs_flush}: time spent in flush_items *)
  (* Named sample providers appended to [metrics_samples] at export time
     (e.g. the hashcons shard-lock stats, which live in global Atomics
     inside Smt.Expr and belong to no single registry). *)
  mutable providers : (string * (unit -> Metrics.sample list)) list;
}

(* A buffered view's domain-private staging area: events and timeline
   samples accumulate here (with a private metrics registry and clock)
   and reach the shared core only in [flush], under [core.lock].  The
   hot path of a worker domain therefore never touches shared state. *)
type pending =
  | P_span of span
  | P_event of { tick : int; worker : int; ev : Event.t }
  | P_sample of {
      tick : int;
      worker : int;
      useful : int;
      replay : int;
      idle : int;
      depth : int;
      queries : int;
      sat_calls : int;
    }

type buf = {
  mutable items : pending list;  (* newest first *)
  mutable nitems : int;
  bmetrics : Metrics.t;
  mutable bnow : int;
  mutable merged : bool;  (* metrics already folded into the core *)
}

type t = { core : core; wid : int; buf : buf option }

(* Auto-flush threshold: bounds a buffered view's memory while amortizing
   the lock over many events. *)
let buf_cap = 8192

let create ?trace_capacity ?bucket_ticks () =
  let metrics = Metrics.create () in
  let core =
    {
      metrics;
      trace = Trace.create ?capacity:trace_capacity ();
      timeline = Timeline.create ?bucket_ticks ();
      spans = span_ring_create ();
      epoch_ns = Clock.now_ns ();
      now = 0;
      lock = Mutex.create ();
      lk_uncontended = Atomic.make 0;
      lk_contended = Atomic.make 0;
      h_flush =
        Metrics.histogram metrics
          ~labels:[ ("kind", "obs_flush") ]
          ~buckets:Metrics.latency_ns_buckets "latency_ns";
      providers = [];
    }
  in
  { core; wid = Event.lb; buf = None }

(* Re-scoping preserves the buffer: views derived from a buffered view
   stage through the same domain-private buffer. *)
let for_worker t wid = { t with wid }

let buffered t wid =
  {
    core = t.core;
    wid;
    buf = Some { items = []; nitems = 0; bmetrics = Metrics.create (); bnow = 0; merged = false };
  }

let worker t = t.wid

let set_now t tick = match t.buf with Some b -> b.bnow <- tick | None -> t.core.now <- tick
let now t = match t.buf with Some b -> b.bnow | None -> t.core.now

let metrics t = match t.buf with Some b -> b.bmetrics | None -> t.core.metrics
let trace t = t.core.trace
let timeline t = t.core.timeline

(* Drain a buffer's staged records into the core, oldest first.  The
   private metrics registry is folded in exactly once (its handles stay
   live in the owning domain, so later increments would double-count if
   merged again); [flush] is meant to be called when the owning domain is
   done, with threshold flushes covering only events and samples. *)
(* Take the core lock, try-lock first so contention on it is counted:
   the obs layer's own serialization point shows up in the same report
   as everyone else's locks. *)
let lock_core core =
  if Mutex.try_lock core.lock then Atomic.incr core.lk_uncontended
  else begin
    Atomic.incr core.lk_contended;
    Mutex.lock core.lock
  end

let flush_items core b =
  let items = List.rev b.items in
  b.items <- [];
  b.nitems <- 0;
  let t0 = Clock.now_ns () in
  lock_core core;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock core.lock)
    (fun () ->
      List.iter
        (function
          | P_span sp -> span_ring_add core.spans sp
          | P_event { tick; worker; ev } -> Trace.record core.trace ~tick ~worker ev
          | P_sample { tick; worker; useful; replay; idle; depth; queries; sat_calls } ->
            Timeline.observe core.timeline ~tick ~worker ~useful ~replay ~idle ~depth ~queries
              ~sat_calls)
        items;
      Metrics.observe core.h_flush (float_of_int (max 0 (Clock.now_ns () - t0))))

let flush t =
  match t.buf with
  | None -> ()
  | Some b ->
    flush_items t.core b;
    if not b.merged then begin
      b.merged <- true;
      lock_core t.core;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.core.lock)
        (fun () -> Metrics.merge_into ~into:t.core.metrics b.bmetrics)
    end

let push b p =
  b.items <- p :: b.items;
  b.nitems <- b.nitems + 1

let event t ev =
  match t.buf with
  | None -> Trace.record t.core.trace ~tick:t.core.now ~worker:t.wid ev
  | Some b ->
    push b (P_event { tick = b.bnow; worker = t.wid; ev });
    if b.nitems >= buf_cap then flush_items t.core b

let observe t ~useful ~replay ~idle ~depth ~queries ~sat_calls =
  match t.buf with
  | None ->
    Timeline.observe t.core.timeline ~tick:t.core.now ~worker:t.wid ~useful ~replay ~idle ~depth
      ~queries ~sat_calls
  | Some b ->
    push b
      (P_sample { tick = b.bnow; worker = t.wid; useful; replay; idle; depth; queries; sat_calls });
    if b.nitems >= buf_cap then flush_items t.core b

(* Record a completed real-nanosecond span attributed to this view's
   worker.  Buffered views stage it like any other pending item (the
   domain hot path touches no shared state); unbuffered views write the
   ring directly, matching the single-domain convention of [event]. *)
let span t ~name ~start_ns ~stop_ns =
  let sp = { sp_worker = t.wid; sp_name = name; sp_start_ns = start_ns; sp_stop_ns = stop_ns } in
  match t.buf with
  | None -> span_ring_add t.core.spans sp
  | Some b ->
    push b (P_span sp);
    if b.nitems >= buf_cap then flush_items t.core b

let epoch_ns t = t.core.epoch_ns

(* Replace-by-name, so a provider registered by every per-domain solver
   (they all see the same global Expr stats) stays idempotent. *)
let set_provider t ~name f =
  let core = t.core in
  lock_core core;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock core.lock)
    (fun () -> core.providers <- (name, f) :: List.remove_assoc name core.providers)

(* ---- exporters ---------------------------------------------------- *)

(* The virtual-tick half of the dual time base: 1 tick = Clock.tick_ns
   of trace time, expressed in the microseconds Chrome expects. *)
let us_per_tick = float_of_int Clock.tick_ns /. 1_000.
let us_of_tick tick = Json.Num (float_of_int tick *. us_per_tick)
let num n = Json.Num (float_of_int n)

let thread_label wid = if wid = Event.lb then "lb" else Printf.sprintf "worker %d" wid

(* Chrome trace_event JSON (chrome://tracing / Perfetto "JSON Array
   Format"), on a dual time base.  Virtual ticks map to microseconds at
   1 tick = Clock.tick_ns: timeline buckets become "C" counter series
   and ring events "i" instants.  Real-nanosecond spans (true multicore
   runs) become "X" complete events at microseconds relative to the
   sink's creation [epoch_ns] — both halves land on the same axis near
   t=0, so a merged trace loads coherently either way. *)
let chrome_events t =
  Timeline.flush t.core.timeline;
  let spans = span_ring_contents t.core.spans in
  let wids =
    List.sort_uniq compare
      ((Event.lb :: Timeline.workers t.core.timeline)
      @ List.map (fun sp -> sp.sp_worker) spans)
  in
  let meta =
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", num 0);
        ("args", Json.Obj [ ("name", Json.Str "cloud9") ]);
      ]
    :: List.map
         (fun wid ->
           Json.Obj
             [
               ("name", Json.Str "thread_name");
               ("ph", Json.Str "M");
               ("pid", num 0);
               ("tid", num wid);
               ("args", Json.Obj [ ("name", Json.Str (thread_label wid)) ]);
             ])
         wids
  in
  let counter name wid start args =
    Json.Obj
      [
        ("name", Json.Str (Printf.sprintf "%s/w%d" name wid));
        ("ph", Json.Str "C");
        ("pid", num 0);
        ("ts", us_of_tick start);
        ("args", Json.Obj args);
      ]
  in
  let counters =
    List.concat_map
      (fun (r : Timeline.row) ->
        [
          counter "util" r.b_worker r.b_start
            [
              ("useful", num r.b_useful); ("replay", num r.b_replay); ("idle", num r.b_idle);
            ];
          counter "frontier" r.b_worker r.b_start [ ("depth", num r.b_depth) ];
          counter "solver" r.b_worker r.b_start
            [ ("queries", num r.b_queries); ("sat_calls", num r.b_sat_calls) ];
        ])
      (Timeline.rows t.core.timeline)
  in
  let instants =
    List.map
      (fun (r : Trace.record) ->
        Json.Obj
          [
            ("name", Json.Str (Event.name r.r_event));
            ("ph", Json.Str "i");
            ("pid", num 0);
            ("tid", num r.r_worker);
            ("ts", us_of_tick r.r_tick);
            ("s", Json.Str "t");
            ("args", Json.Obj (Event.args r.r_event));
          ])
      (Trace.contents t.core.trace)
  in
  let completes =
    List.map
      (fun sp ->
        Json.Obj
          [
            ("name", Json.Str sp.sp_name);
            ("ph", Json.Str "X");
            ("pid", num 0);
            ("tid", num sp.sp_worker);
            ("ts", Json.Num (float_of_int (sp.sp_start_ns - t.core.epoch_ns) /. 1_000.));
            ("dur", Json.Num (float_of_int (max 0 (sp.sp_stop_ns - sp.sp_start_ns)) /. 1_000.));
            ("args", Json.Obj []);
          ])
      spans
  in
  meta @ counters @ instants @ completes

let write_chrome_trace t oc =
  let buf = Buffer.create 65536 in
  Json.write buf (Json.Arr (chrome_events t));
  Buffer.add_char buf '\n';
  Buffer.output_buffer oc buf

(* Per-worker cumulative totals from the timeline, exported as synthetic
   counter samples alongside the registry's own contents.  The useful and
   replay totals reconcile exactly with the run result's instruction
   counters. *)
let totals_samples t =
  Timeline.flush t.core.timeline;
  List.concat_map
    (fun (wid, (tot : Timeline.totals)) ->
      let labels = [ ("worker", string_of_int wid) ] in
      List.map
        (fun (name, v) ->
          { Metrics.s_name = name; s_labels = labels; s_value = Metrics.Vcounter v })
        [
          ("worker_useful_instrs", tot.t_useful);
          ("worker_replay_instrs", tot.t_replay);
          ("worker_idle_instrs", tot.t_idle);
          ("worker_solver_queries", tot.t_queries);
          ("worker_sat_calls", tot.t_sat_calls);
        ])
    (Timeline.totals t.core.timeline)

(* The core lock's own try-lock probe, as synthetic counter samples. *)
let core_lock_samples t =
  List.map
    (fun (outcome, v) ->
      {
        Metrics.s_name = "obs_core_lock_acquisitions";
        s_labels = [ ("outcome", outcome) ];
        s_value = Metrics.Vcounter v;
      })
    [
      ("uncontended", Atomic.get t.core.lk_uncontended);
      ("contended", Atomic.get t.core.lk_contended);
    ]

let provider_samples t =
  List.concat_map (fun (_, f) -> f ()) (List.rev t.core.providers)

let metrics_samples t =
  Metrics.snapshot t.core.metrics @ totals_samples t @ core_lock_samples t @ provider_samples t

let write_metrics_jsonl t oc =
  let buf = Buffer.create 4096 in
  Metrics.write_jsonl buf (metrics_samples t);
  Buffer.output_buffer oc buf
