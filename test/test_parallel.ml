(* Tests for the true-multicore runtime (Cluster.Parallel) and the
   domain-safety of the solver infrastructure under it.

   The stress test hammers the sharded hashcons table from four domains
   at once: interning must still be canonical (same structure -> same
   physical term, across domains) with globally unique ids.  The
   differential tests are the runtime's correctness gate: a parallel
   exhaustive run must complete with exactly the path/error totals of
   the simulated driver and the single-engine reference, whatever the
   domain interleaving. *)

module Expr = Smt.Expr
module C = Core.Cloud9

(* --- 4-domain expression-forking stress -------------------------------- *)

(* Each domain builds the same [per] structures (from deterministic
   symbol ids) plus a salted one of its own; all four race the intern
   table. *)
let test_hashcons_stress () =
  let nd = 4 and per = 2_000 in
  (* deterministic symbol ids, so every domain builds the *same* terms *)
  let build () =
    Array.init per (fun i ->
        let x = Expr.sym_with_id ~id:(1_000_000 + (i mod 97)) ~name:"x" 32 in
        let e =
          Expr.add (Expr.mul x (Expr.of_int ~width:32 (i mod 251))) (Expr.of_int ~width:32 i)
        in
        Expr.ite (Expr.ult x (Expr.of_int ~width:32 128)) e (Expr.sub e x))
  in
  let arrs = Array.map Domain.join (Array.init nd (fun _ -> Domain.spawn build)) in
  (* Canonical interning: structurally equal terms built concurrently on
     different domains are the same physical term ([Expr.equal] is
     physical equality on interned terms). *)
  for d = 1 to nd - 1 do
    for i = 0 to per - 1 do
      if not (Expr.equal arrs.(0).(i) arrs.(d).(i)) then
        Alcotest.failf "domains 0 and %d interned term %d differently" d i;
      if Expr.compare_structural arrs.(0).(i) arrs.(d).(i) <> 0 then
        Alcotest.failf "structural order disagrees at term %d" i
    done
  done;
  (* Distinct structures got distinct ids. *)
  let module IS = Set.Make (Int) in
  let ids =
    Array.fold_left
      (fun acc arr -> Array.fold_left (fun acc e -> IS.add (Expr.id e) acc) acc arr)
      IS.empty arrs
  in
  Alcotest.(check bool) "ids plausible" true (IS.cardinal ids >= per);
  let st = Expr.hashcons_stats () in
  Alcotest.(check bool) "table non-empty" true (st.Expr.table_size > 0);
  Alcotest.(check bool) "ids monotone" true (st.Expr.next_id >= IS.max_elt ids);
  Alcotest.(check bool) "interning hit the table" true (st.Expr.hits > 0)

(* The sym_set memo is published through an Atomic on each node: domains
   racing to memoize the same shared term must all read either None or a
   fully built set, never a torn value.  Build a deep shared expression,
   then have 4 domains walk it concurrently and compare every answer to
   the sequentially computed reference. *)
let test_syms_memo_race () =
  let nd = 4 in
  (* deep chain over many symbols so the memo race has real surface *)
  let terms =
    Array.init 64 (fun i ->
        let rec build depth acc =
          if depth = 0 then acc
          else
            let x = Expr.sym_with_id ~id:(2_000_000 + (i * 40) + depth) ~name:"s" 32 in
            build (depth - 1) (Expr.add (Expr.mul acc x) (Expr.of_int ~width:32 depth))
        in
        build 32 (Expr.sym_with_id ~id:(2_000_000 + (i * 40)) ~name:"s" 32))
  in
  let reference = Array.map Expr.sym_set terms in
  (* fresh structurally-equal terms intern to the same memoized nodes, so
     the reference walk above already primed some memos; rebuild a second
     batch that no one has walked yet to race on cold memos too *)
  let cold =
    Array.init 64 (fun i ->
        let rec build depth acc =
          if depth = 0 then acc
          else
            let x = Expr.sym_with_id ~id:(3_000_000 + (i * 40) + depth) ~name:"s" 32 in
            build (depth - 1) (Expr.add (Expr.mul acc x) (Expr.of_int ~width:32 depth))
        in
        build 32 (Expr.sym_with_id ~id:(3_000_000 + (i * 40)) ~name:"s" 32))
  in
  let walk () = Array.map Expr.sym_set cold in
  let results = Array.map Domain.join (Array.init nd (fun _ -> Domain.spawn walk)) in
  let cold_reference = Array.map Expr.sym_set cold in
  Array.iter
    (fun per_domain ->
      Array.iteri
        (fun i s ->
          if not (Expr.Iset.equal s cold_reference.(i)) then
            Alcotest.failf "concurrent sym_set disagrees with sequential at term %d" i)
        per_domain)
    results;
  (* warm memos stay correct after the stampede *)
  Array.iteri
    (fun i t ->
      if not (Expr.Iset.equal (Expr.sym_set t) reference.(i)) then
        Alcotest.failf "memoized sym_set changed at term %d" i)
    terms;
  Alcotest.(check int) "reference cardinality sane" 33 (Expr.Iset.cardinal reference.(0))

(* Fresh symbols minted concurrently must never collide. *)
let test_fresh_sym_unique () =
  let nd = 4 and per = 1_000 in
  let mint () = Array.init per (fun _ -> Expr.id (Expr.fresh_sym 8)) in
  let arrs = Array.map Domain.join (Array.init nd (fun _ -> Domain.spawn mint)) in
  let module IS = Set.Make (Int) in
  let ids =
    Array.fold_left
      (fun acc arr -> Array.fold_left (fun acc i -> IS.add i acc) acc arr)
      IS.empty arrs
  in
  Alcotest.(check int) "all fresh symbols distinct" (nd * per) (IS.cardinal ids)

(* --- parallel == simulated == local ------------------------------------ *)

let check_tier_sum what (st : Smt.Solver.stats) =
  Alcotest.(check int)
    (what ^ ": solver tiers reconcile")
    st.Smt.Solver.queries
    (st.Smt.Solver.trivial + st.Smt.Solver.cache_hits + st.Smt.Solver.cex_hits
   + st.Smt.Solver.sat_calls)

(* [Cloud9.run_parallel]'s configuration, passed through [tweak] first,
   for runs that need a non-default cadence or tick. *)
let run_parallel_with ~tweak ~ndomains target =
  Cluster.Parallel.run
    ~coverable_lines:(List.length (Cvm.Program.covered_lines target.C.program))
    (tweak (C.parallel_config ~ndomains target))

let differential ?tweak ~name ~variant () =
  let target =
    match Core.Registry.resolve ~name ~variant:(Some variant) with
    | Some t -> t
    | None -> Alcotest.failf "registry target %s/%s missing" name variant
  in
  let local = C.run_local target in
  let sim = C.run_cluster target in
  let par =
    match tweak with
    | None -> C.run_parallel ~ndomains:4 target
    | Some tweak -> run_parallel_with ~tweak ~ndomains:4 target
  in
  Alcotest.(check int) "paths: parallel = local" local.C.paths par.Cluster.Parallel.total_paths;
  Alcotest.(check int)
    "paths: parallel = simulated" sim.Cluster.Driver.total_paths
    par.Cluster.Parallel.total_paths;
  Alcotest.(check int) "errors: parallel = local" local.C.errors par.Cluster.Parallel.total_errors;
  Alcotest.(check int)
    "errors: parallel = simulated" sim.Cluster.Driver.total_errors
    par.Cluster.Parallel.total_errors;
  Alcotest.(check bool)
    "coverage agrees with local" true
    (abs_float (local.C.coverage -. par.Cluster.Parallel.final_coverage) < 1e-9);
  check_tier_sum "parallel" par.Cluster.Parallel.solver_stats;
  List.iter
    (fun (w, st) -> check_tier_sum (Printf.sprintf "parallel worker %d" w) st)
    par.Cluster.Parallel.per_worker_solver;
  (* every transferred job was sent by someone and received by someone *)
  Alcotest.(check int)
    "jobs sent = jobs received" par.Cluster.Parallel.jobs_sent
    par.Cluster.Parallel.jobs_received;
  Alcotest.(check int)
    "transfers = jobs moved" par.Cluster.Parallel.transfers par.Cluster.Parallel.jobs_sent

(* --- event-driven balancing ---------------------------------------------- *)

(* Steals follow status reports, not the clock: with a 1 s tick period no
   tick lands during the run, yet the idle second domain must still be
   fed and do a real share of the work. *)
let test_balances_without_ticks () =
  let target =
    C.target "memcached" (Targets.Memcached_mini.symbolic_packets ~npackets:2 ~pkt_len:4)
  in
  let r =
    run_parallel_with ~ndomains:2 target ~tweak:(fun cfg ->
        { cfg with Cluster.Parallel.tick_period = 1.0 })
  in
  Alcotest.(check int) "paths" 133 r.Cluster.Parallel.total_paths;
  Alcotest.(check int) "errors" 76 r.Cluster.Parallel.total_errors;
  Alcotest.(check bool)
    (Printf.sprintf "steals %d >= 1" r.Cluster.Parallel.steals)
    true (r.Cluster.Parallel.steals >= 1);
  let useful = r.Cluster.Parallel.useful_instrs in
  Alcotest.(check int) "both workers report" 2 (List.length r.Cluster.Parallel.per_worker_useful);
  List.iter
    (fun (w, u) ->
      Alcotest.(check bool)
        (Printf.sprintf "worker %d retired %d of %d useful instructions (>= 20%%)" w u useful)
        true
        (5 * u >= useful))
    r.Cluster.Parallel.per_worker_useful

(* --- wall-clock profiling smoke ----------------------------------------- *)

(* A profiled 4-domain run must reconcile: every answered solver query
   closes exactly one latency span, the workers that started without
   jobs must have recorded mailbox waits, the shard-lock probe must have
   counted the run's interning, and the exported trace must carry
   real-nanosecond "X" spans next to the tick-based instants. *)
let test_profiled_run_reconciles () =
  let target =
    match Core.Registry.resolve ~name:"test" ~variant:(Some "sym-3") with
    | Some t -> t
    | None -> Alcotest.fail "registry target test/sym-3 missing"
  in
  let obs = Obs.Sink.create () in
  let r = C.run_parallel ~obs ~ndomains:4 target in
  let samples = Obs.Sink.metrics_samples obs in
  let hist_count name want_kind =
    List.fold_left
      (fun acc (s : Obs.Metrics.sample) ->
        match s.Obs.Metrics.s_value with
        | Obs.Metrics.Vhistogram h
          when s.Obs.Metrics.s_name = name
               && List.assoc_opt "kind" s.Obs.Metrics.s_labels = Some want_kind ->
          acc + h.vcount
        | _ -> acc)
      0 samples
  in
  Alcotest.(check int) "every query closed exactly one span"
    r.Cluster.Parallel.solver_stats.Smt.Solver.queries
    (hist_count "latency_ns" "solver_query");
  (* workers 1-3 start with empty queues, so someone must have waited *)
  Alcotest.(check bool) "mailbox waits recorded" true
    (hist_count "latency_ns" "mailbox_wait" >= 1);
  let lock_counter outcome =
    match
      Obs.Metrics.find samples "hashcons_lock_acquisitions" [ ("outcome", outcome) ]
    with
    | Some { Obs.Metrics.s_value = Obs.Metrics.Vcounter n; _ } -> n
    | _ -> Alcotest.failf "hashcons_lock_acquisitions{outcome=%s} missing" outcome
  in
  Alcotest.(check bool) "shard-lock probe counted the run" true
    (lock_counter "uncontended" + lock_counter "contended" > 0);
  let path = Filename.temp_file "c9par" ".json" in
  let oc = open_out path in
  Obs.Sink.write_chrome_trace obs oc;
  close_out oc;
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let events =
    match Obs.Json.parse_exn text with
    | Obs.Json.Arr l -> l
    | _ -> Alcotest.fail "trace must be one JSON array"
  in
  let phases =
    List.filter_map (fun e -> Option.bind (Obs.Json.member "ph" e) Obs.Json.to_str) events
  in
  Alcotest.(check bool) "real-ns X spans exported" true (List.mem "X" phases);
  Alcotest.(check bool) "tick-based instants exported alongside" true (List.mem "i" phases)

let () =
  Alcotest.run "parallel"
    [
      ( "domain-safety",
        [
          Alcotest.test_case "hashcons 4-domain stress" `Quick test_hashcons_stress;
          Alcotest.test_case "sym_set memo 4-domain race" `Quick test_syms_memo_race;
          Alcotest.test_case "fresh_sym unique across domains" `Quick test_fresh_sym_unique;
        ] );
      ( "profiling",
        [ Alcotest.test_case "profiled run reconciles" `Quick test_profiled_run_reconciles ] );
      ( "balancing",
        [ Alcotest.test_case "steals without a timer" `Quick test_balances_without_ticks ] );
      ( "differential",
        [
          Alcotest.test_case "test/sym-3: parallel = simulated = local" `Quick
            (differential ~name:"test" ~variant:"sym-3");
          Alcotest.test_case "test/sym-3 reporting every quantum" `Quick
            (differential ~name:"test" ~variant:"sym-3" ~tweak:(fun cfg ->
                 { cfg with Cluster.Parallel.status_every = 1 }));
          Alcotest.test_case "printf/sym-4: parallel = simulated = local" `Slow
            (differential ~name:"printf" ~variant:"sym-4");
        ] );
    ]
