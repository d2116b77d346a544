(* Shard choice and lock-contention probe of the process-wide sharded
   tables: the hashcons table ({!Expr}) and the solvers' shared answer
   store ({!Solver.Store}).

   A shard's hash table picks a bucket from the low bits of the same
   hash ([hash mod size]), so the shard must come from other bits:
   choosing it by [hash land 255] put every hashcons node of a shard into
   one bucket, which [Weak.Make] never resizes.  The shard is the top
   [bits] of a multiplicative (Fibonacci) mix of the hash, which depend
   on all of its bits. *)

let bits = 6
let count = 1 lsl bits
let of_hash h = (h * 0x278DDE6E5FD29F05) lsr (Sys.int_size - bits)

(* Contention probe on the shard locks: an acquisition try-locks first
   and counts which way it went.  Contended acquisitions are additionally
   timed (gated on the process-wide [timing] switch, enabled by the
   multicore facade for profiled runs) into a hand-rolled Atomic bucket
   array sharing the obs latency_ns bounds — uncontended ones are never
   timed, since two clock reads would cost more than the lock itself and
   swamp the <5% profiling overhead budget. *)
let timing = Atomic.make false
let set_timing on = Atomic.set timing on

type probe = {
  uncontended : int Atomic.t;
  contended : int Atomic.t;
  wait_counts : int Atomic.t array;
  wait_sum_ns : int Atomic.t;
  per_shard : int array;  (* contended acquisitions; slot [i] written under shard [i]'s lock *)
}

let probe ~nshards =
  {
    uncontended = Atomic.make 0;
    contended = Atomic.make 0;
    wait_counts =
      Array.init (Array.length Obs.Metrics.latency_ns_buckets + 1) (fun _ -> Atomic.make 0);
    wait_sum_ns = Atomic.make 0;
    per_shard = Array.make nshards 0;
  }

let wait_bucket ns =
  let bounds = Obs.Metrics.latency_ns_buckets in
  let n = Array.length bounds in
  let rec slot i = if i >= n || float_of_int ns <= bounds.(i) then i else slot (i + 1) in
  slot 0

let contended p i lock =
  Atomic.incr p.contended;
  if Atomic.get timing then begin
    let t0 = Obs.Clock.now_ns () in
    Mutex.lock lock;
    let dt = max 0 (Obs.Clock.now_ns () - t0) in
    Atomic.incr p.wait_counts.(wait_bucket dt);
    ignore (Atomic.fetch_and_add p.wait_sum_ns dt)
  end
  else Mutex.lock lock;
  p.per_shard.(i) <- p.per_shard.(i) + 1

(* inlined into every interning and answer lookup: the fast path is the
   try-lock and one increment *)
let[@inline] acquire p i lock =
  if Mutex.try_lock lock then Atomic.incr p.uncontended else contended p i lock

type stats = {
  lk_uncontended : int;
  lk_contended : int;
  lk_wait_counts : int array;
  lk_wait_sum_ns : int;
  lk_top_shards : (int * int) list;
}

let stats p =
  (* per-shard reads are unsynchronized — stats, not invariants *)
  let tops =
    Array.to_list (Array.mapi (fun i c -> (i, c)) p.per_shard)
    |> List.filter (fun (_, c) -> c > 0)
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.filteri (fun i _ -> i < 8)
  in
  {
    lk_uncontended = Atomic.get p.uncontended;
    lk_contended = Atomic.get p.contended;
    lk_wait_counts = Array.map Atomic.get p.wait_counts;
    lk_wait_sum_ns = Atomic.get p.wait_sum_ns;
    lk_top_shards = tops;
  }

let reset p =
  Atomic.set p.uncontended 0;
  Atomic.set p.contended 0;
  Array.iter (fun a -> Atomic.set a 0) p.wait_counts;
  Atomic.set p.wait_sum_ns 0;
  Array.fill p.per_shard 0 (Array.length p.per_shard) 0
