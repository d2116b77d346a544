(* Tests for the observability subsystem: the JSON codec, the metrics
   registry, the trace ring, timeline delta arithmetic, and — end to
   end — the artifacts exported from instrumented local and faulty
   cluster runs, reconciled against the drivers' own result counters. *)

module J = Obs.Json
module M = Obs.Metrics
module C = Core.Cloud9
module CD = Cluster.Driver

(* --- json codec --------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("a", J.Num 1.5);
        ("b", J.Arr [ J.Str "x\"y\n"; J.Bool true; J.Null ]);
        ("empty", J.Obj []);
      ]
  in
  Alcotest.(check bool) "roundtrip" true (J.parse_exn (J.to_string v) = v);
  match J.parse "{oops" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a parse error"

(* Printer/parser agreement as a property over arbitrary documents.
   The printer promises exact round-trip for every finite double (it
   escalates %.15g -> %.16g -> %.17g until re-parsing yields the same
   bits), so the property quantifies over arbitrary finite floats, not
   just integers. *)
let gen_json =
  let open QCheck2.Gen in
  let finite_float =
    map
      (fun f -> if Float.is_finite f then f else 0.5)
      (oneof [ float; map float_of_int (int_range (-1_000_000_000) 1_000_000_000) ])
  in
  let leaf =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun n -> J.Num n) finite_float;
        map (fun s -> J.Str s) (string_size ~gen:printable (int_bound 16));
      ]
  in
  let node self n =
    if n = 0 then leaf
    else
      oneof
        [
          leaf;
          map (fun l -> J.Arr l) (list_size (int_bound 5) (self (n / 2)));
          map
            (fun l -> J.Obj l)
            (list_size (int_bound 5)
               (pair (string_size ~gen:printable (int_bound 10)) (self (n / 2))));
        ]
  in
  sized_size (int_bound 10) (fix node)

let prop_json_print_parse =
  QCheck2.Test.make ~count:1000 ~name:"Json.parse inverts Json.to_string" gen_json (fun v ->
      J.parse (J.to_string v) = Ok v)

(* --- metrics registry ----------------------------------------------------- *)

let test_metrics_instruments () =
  let reg = M.create () in
  let c = M.counter reg "steps" in
  M.incr c;
  M.add c 4;
  Alcotest.(check int) "counter" 5 (M.counter_value c);
  (* find-or-create returns the same handle *)
  M.incr (M.counter reg "steps");
  Alcotest.(check int) "shared handle" 6 (M.counter_value c);
  let g = M.gauge reg "depth" in
  M.set g 3.5;
  Alcotest.(check (float 0.0)) "gauge" 3.5 (M.gauge_value g);
  let h = M.histogram reg ~buckets:[| 1.0; 10.0 |] "latency" in
  List.iter (M.observe h) [ 0.5; 5.0; 50.0 ];
  match M.find (M.snapshot reg) "latency" [] with
  | Some { M.s_value = M.Vhistogram { vcounts; vcount; vsum; _ }; _ } ->
    Alcotest.(check (list int)) "bucket counts" [ 1; 1; 1 ] (Array.to_list vcounts);
    Alcotest.(check int) "observation count" 3 vcount;
    Alcotest.(check (float 0.001)) "sum" 55.5 vsum
  | _ -> Alcotest.fail "histogram sample missing"

let test_metrics_families_and_mismatch () =
  let reg = M.create () in
  let sat = M.counter reg ~labels:[ ("tier", "sat_cache") ] "solver_queries" in
  let cex = M.counter reg ~labels:[ ("tier", "cex_cache") ] "solver_queries" in
  M.add sat 3;
  M.incr cex;
  let snap = M.snapshot reg in
  let value name labels =
    match M.find snap name labels with
    | Some { M.s_value = M.Vcounter v; _ } -> v
    | _ -> Alcotest.fail "missing counter sample"
  in
  Alcotest.(check int) "labeled family member 1" 3
    (value "solver_queries" [ ("tier", "sat_cache") ]);
  Alcotest.(check int) "labeled family member 2" 1
    (value "solver_queries" [ ("tier", "cex_cache") ]);
  (* same name+labels under a different instrument type must be rejected *)
  match M.gauge reg ~labels:[ ("tier", "sat_cache") ] "solver_queries" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on type mismatch"

let test_metrics_diff () =
  let reg = M.create () in
  let c = M.counter reg "paths" in
  let g = M.gauge reg "queue" in
  M.add c 10;
  M.set g 1.0;
  let base = M.snapshot reg in
  M.add c 7;
  M.set g 9.0;
  let d = M.diff ~base (M.snapshot reg) in
  (match M.find d "paths" [] with
  | Some { M.s_value = M.Vcounter v; _ } -> Alcotest.(check int) "counter delta" 7 v
  | _ -> Alcotest.fail "missing counter");
  match M.find d "queue" [] with
  | Some { M.s_value = M.Vgauge v; _ } -> Alcotest.(check (float 0.0)) "gauge keeps newer" 9.0 v
  | _ -> Alcotest.fail "missing gauge"

(* --- merge_into: split stream == one stream ----------------------------------- *)

(* Apply one generated operation to a registry.  Instruments are keyed so
   a stream touches a few counters, gauges and histograms repeatedly. *)
let apply_op reg (kind, key, amt) =
  let name prefix = prefix ^ string_of_int key in
  match kind with
  | 0 -> M.add (M.counter reg (name "c")) amt
  | 1 -> M.set (M.gauge reg (name "g")) (float_of_int amt)
  | _ -> M.observe (M.histogram reg ~buckets:[| 8.0; 32.0; 128.0 |] (name "h")) (float_of_int amt)

let norm_snapshot snap =
  List.sort compare (List.map (fun s -> (s.M.s_name, s.M.s_labels, s.M.s_value)) snap)

(* The flush path folds each domain's private registry into the shared
   one with [merge_into]; the property that makes that sound: splitting
   an operation stream across registries and merging is indistinguishable
   from applying the whole stream to one registry.  Counters and
   histograms add, so they can round-robin freely; gauges take the
   source's value on merge, so all sets of one gauge must route to the
   same registry (per-key) to keep last-write-wins — exactly how real
   use splits them (each gauge is owned by one domain). *)
let prop_merge_into =
  let gen =
    QCheck2.Gen.(
      list_size (int_bound 200)
        (triple (int_bound 2) (int_bound 3) (int_bound 100)))
  in
  QCheck2.Test.make ~count:100 ~name:"merge_into: split + merge == one registry" gen (fun ops ->
      let direct = M.create () in
      List.iter (apply_op direct) ops;
      let a = M.create () in
      let b = M.create () in
      List.iteri
        (fun i ((kind, key, _) as op) ->
          let dst =
            if kind = 1 then if key mod 2 = 0 then a else b
            else if i mod 2 = 0 then a
            else b
          in
          apply_op dst op)
        ops;
      let merged = M.create () in
      M.merge_into ~into:merged a;
      M.merge_into ~into:merged b;
      norm_snapshot (M.snapshot merged) = norm_snapshot (M.snapshot direct))

(* --- percentile estimation -------------------------------------------------- *)

let test_percentile () =
  let h vcounts vsum vcount =
    M.Vhistogram { vbounds = [| 10.0; 20.0; 40.0 |]; vcounts; vsum; vcount }
  in
  let v = h [| 1; 2; 1; 0 |] 70.0 4 in
  Alcotest.(check (option (float 1e-9))) "p0 is the distribution floor" (Some 0.0)
    (M.percentile v 0.0);
  Alcotest.(check (option (float 1e-9))) "p50 interpolates within its bucket" (Some 15.0)
    (M.percentile v 0.5);
  Alcotest.(check (option (float 1e-9))) "p100 is the top of the last occupied bucket"
    (Some 40.0) (M.percentile v 1.0);
  (* ranks landing in the +inf overflow bucket clamp to the last finite bound *)
  let overflow = h [| 0; 0; 0; 2 |] 1000.0 2 in
  Alcotest.(check (option (float 1e-9))) "overflow clamps to last finite bound" (Some 40.0)
    (M.percentile overflow 0.5);
  Alcotest.(check (option (float 1e-9))) "empty histogram" None
    (M.percentile (h [| 0; 0; 0; 0 |] 0.0 0) 0.5);
  Alcotest.(check (option (float 1e-9))) "non-histogram" None (M.percentile (M.Vcounter 3) 0.5)

(* --- buffered view flush edges ------------------------------------------------ *)

let test_buffered_threshold_flush () =
  let s = Obs.Sink.create ~trace_capacity:100_000 () in
  let v = Obs.Sink.buffered s 3 in
  let appended () = Obs.Trace.appended (Obs.Sink.trace s) in
  let pushed = ref 0 in
  (* stage events until the auto-flush fires: the core must receive the
     staged batch exactly when the buffer reaches its threshold, in one
     go, never a partial prefix *)
  while appended () = 0 && !pushed < 100_000 do
    Obs.Sink.event v (Obs.Event.Mark "m");
    incr pushed
  done;
  Alcotest.(check bool) "auto-flush fired" true (appended () > 0);
  Alcotest.(check int) "flush hands over exactly the staged batch" !pushed (appended ());
  (* the buffer restarts empty: the next event stages privately again *)
  Obs.Sink.event v (Obs.Event.Mark "m");
  Alcotest.(check int) "buffer restarts empty after the flush" !pushed (appended ())

let test_buffered_flush_merges_once () =
  let s = Obs.Sink.create () in
  let v = Obs.Sink.buffered s 1 in
  let c = M.counter (Obs.Sink.metrics v) "probe" in
  M.add c 5;
  let core_value () =
    match M.find (Obs.Sink.metrics_samples s) "probe" [] with
    | Some { M.s_value = M.Vcounter n; _ } -> Some n
    | _ -> None
  in
  Alcotest.(check (option int)) "metrics stay private before flush" None (core_value ());
  Obs.Sink.flush v;
  Alcotest.(check (option int)) "flush folds the private registry in" (Some 5) (core_value ());
  M.add c 3;
  Obs.Sink.flush v;
  Alcotest.(check (option int)) "a second flush must not double-merge" (Some 5) (core_value ())

let test_buffered_flush_empty () =
  let s = Obs.Sink.create () in
  let v = Obs.Sink.buffered s 2 in
  (* flushing a view that never staged anything must be a clean no-op on
     the ring (the exit path always flushes, even idle workers) *)
  Obs.Sink.flush v;
  Obs.Sink.flush v;
  Alcotest.(check int) "no events reached the ring" 0 (Obs.Trace.appended (Obs.Sink.trace s));
  ignore (Obs.Sink.metrics_samples s)

(* --- chrome exporter: dual time base ------------------------------------------ *)

let test_chrome_trace_dual_timebase () =
  let s = Obs.Sink.create () in
  let epoch = Obs.Sink.epoch_ns s in
  Obs.Sink.set_now s 3;
  Obs.Sink.event s (Obs.Event.Mark "tickside");
  Obs.Sink.span s ~name:"work" ~start_ns:(epoch + 5_000) ~stop_ns:(epoch + 25_000);
  (* a span whose clock went backwards must clamp, not go negative *)
  Obs.Sink.span s ~name:"backwards" ~start_ns:(epoch + 9_000) ~stop_ns:(epoch + 4_000);
  let path = Filename.temp_file "c9dual" ".json" in
  let oc = open_out path in
  Obs.Sink.write_chrome_trace s oc;
  close_out oc;
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let events =
    match J.parse_exn text with J.Arr l -> l | _ -> Alcotest.fail "trace must be one JSON array"
  in
  let find name =
    match
      List.filter
        (fun e -> Option.bind (J.member "name" e) J.to_str = Some name)
        events
    with
    | [ e ] -> e
    | l -> Alcotest.failf "expected exactly one %S event, got %d" name (List.length l)
  in
  let field e k = Option.bind (J.member k e) J.to_float in
  let phase e = Option.bind (J.member "ph" e) J.to_str in
  let work = find "work" in
  Alcotest.(check (option string)) "span is a complete event" (Some "X") (phase work);
  Alcotest.(check (option (float 1e-9))) "span ts is epoch-relative us" (Some 5.0)
    (field work "ts");
  Alcotest.(check (option (float 1e-9))) "span dur in us" (Some 20.0) (field work "dur");
  Alcotest.(check (option (float 1e-9))) "backwards span clamps to zero" (Some 0.0)
    (field (find "backwards") "dur");
  (* the tick-mapped instant coexists in the same file, on the same
     microsecond axis, at 1 tick = Clock.tick_ns (instants export under
     the event's kind name; the mark text lives in args) *)
  let inst = find "mark" in
  Alcotest.(check (option string)) "instant keeps its phase" (Some "i") (phase inst);
  Alcotest.(check (option (float 1e-9))) "instant ts maps ticks to us"
    (Some (3.0 *. float_of_int Obs.Clock.tick_ns /. 1_000.0))
    (field inst "ts")

(* --- trace ring ------------------------------------------------------------- *)

let test_trace_ring_bound () =
  let tr = Obs.Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    Obs.Trace.record tr ~tick:i ~worker:0 (Obs.Event.Mark (string_of_int i))
  done;
  Alcotest.(check int) "appended" 10 (Obs.Trace.appended tr);
  Alcotest.(check int) "dropped" 6 (Obs.Trace.dropped tr);
  Alcotest.(check (list int)) "bounded, oldest first" [ 7; 8; 9; 10 ]
    (List.map (fun r -> r.Obs.Trace.r_tick) (Obs.Trace.contents tr))

let test_trace_spill () =
  let path = Filename.temp_file "c9spill" ".jsonl" in
  let tr = Obs.Trace.create ~capacity:2 () in
  let oc = open_out path in
  Obs.Trace.attach_spill tr oc;
  for i = 1 to 6 do
    Obs.Trace.record tr ~tick:i ~worker:(i mod 3)
      (Obs.Event.Lease_grant { lease = i; dst = 1; jobs = 2; recovery = false })
  done;
  Obs.Trace.detach_spill tr;
  close_out oc;
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  (* the spill keeps every record, including the four the ring dropped *)
  let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text) in
  Alcotest.(check int) "spill keeps overwritten records" 6 (List.length lines);
  List.iteri
    (fun i line ->
      let j = J.parse_exn line in
      Alcotest.(check (option string)) "event name" (Some "lease_grant")
        (Option.bind (J.member "event" j) J.to_str);
      Alcotest.(check (option (float 0.0))) "tick stamp" (Some (float_of_int (i + 1)))
        (Option.bind (J.member "tick" j) J.to_float))
    lines

(* --- timeline ------------------------------------------------------------------ *)

let test_timeline_deltas_and_reset () =
  let tl = Obs.Timeline.create ~bucket_ticks:10 () in
  let ob ~tick ~useful ~replay =
    Obs.Timeline.observe tl ~tick ~worker:0 ~useful ~replay ~idle:0 ~depth:2 ~queries:0
      ~sat_calls:0
  in
  ob ~tick:1 ~useful:100 ~replay:0;
  ob ~tick:5 ~useful:250 ~replay:20;
  ob ~tick:12 ~useful:400 ~replay:30;
  (* counter reset: a rejoined worker restarts its engine from zero *)
  ob ~tick:15 ~useful:50 ~replay:0;
  Obs.Timeline.flush tl;
  (match Obs.Timeline.rows tl with
  | [ b0; b1 ] ->
    Alcotest.(check int) "bucket 0 start" 0 b0.Obs.Timeline.b_start;
    Alcotest.(check int) "bucket 0 useful" 250 b0.Obs.Timeline.b_useful;
    Alcotest.(check int) "bucket 0 replay" 20 b0.Obs.Timeline.b_replay;
    Alcotest.(check int) "bucket 1 start" 10 b1.Obs.Timeline.b_start;
    Alcotest.(check int) "bucket 1 useful" 200 b1.Obs.Timeline.b_useful;
    Alcotest.(check int) "bucket 1 replay" 10 b1.Obs.Timeline.b_replay
  | rows -> Alcotest.failf "expected 2 buckets, got %d" (List.length rows));
  match Obs.Timeline.totals tl with
  | [ (0, t) ] ->
    Alcotest.(check int) "useful total spans the reset" 450 t.Obs.Timeline.t_useful;
    Alcotest.(check int) "replay total" 30 t.Obs.Timeline.t_replay
  | _ -> Alcotest.fail "expected one worker"

(* A worker that crashes and rejoins TWICE: each rejoin restarts its
   engine counters from zero, so the timeline must fold two resets into
   the running totals without double-counting or losing the pre-crash
   work. *)
let test_timeline_double_reset () =
  let tl = Obs.Timeline.create ~bucket_ticks:10 () in
  let ob ~tick ~useful ~replay =
    Obs.Timeline.observe tl ~tick ~worker:0 ~useful ~replay ~idle:0 ~depth:2 ~queries:0
      ~sat_calls:0
  in
  ob ~tick:1 ~useful:100 ~replay:0;
  ob ~tick:5 ~useful:250 ~replay:20;
  (* first crash + rejoin: counters restart below their last value *)
  ob ~tick:8 ~useful:40 ~replay:0;
  ob ~tick:12 ~useful:90 ~replay:10;
  (* second crash + rejoin *)
  ob ~tick:15 ~useful:30 ~replay:0;
  ob ~tick:18 ~useful:80 ~replay:5;
  Obs.Timeline.flush tl;
  (match Obs.Timeline.rows tl with
  | [ b0; b1 ] ->
    (* bucket 0: 100 + 150 + 40-after-reset = 290 useful, 20 replay *)
    Alcotest.(check int) "bucket 0 useful" 290 b0.Obs.Timeline.b_useful;
    Alcotest.(check int) "bucket 0 replay" 20 b0.Obs.Timeline.b_replay;
    (* bucket 1: 50 + 30-after-reset + 50 = 130 useful, 10 + 0 + 5 replay *)
    Alcotest.(check int) "bucket 1 useful" 130 b1.Obs.Timeline.b_useful;
    Alcotest.(check int) "bucket 1 replay" 15 b1.Obs.Timeline.b_replay
  | rows -> Alcotest.failf "expected 2 buckets, got %d" (List.length rows));
  match Obs.Timeline.totals tl with
  | [ (0, t) ] ->
    (* both resets reconcile: 290 + 130 and 20 + 15 *)
    Alcotest.(check int) "useful total spans both resets" 420 t.Obs.Timeline.t_useful;
    Alcotest.(check int) "replay total spans both resets" 35 t.Obs.Timeline.t_replay
  | _ -> Alcotest.fail "expected one worker"

(* --- exported samples helper --------------------------------------------------- *)

let sum_counter samples name =
  List.fold_left
    (fun acc (s : M.sample) ->
      match s.M.s_value with
      | M.Vcounter v when s.M.s_name = name -> acc + v
      | _ -> acc)
    0 samples

(* --- instrumented local run ------------------------------------------------------ *)

let test_local_run_reconciles () =
  let program = Targets.Printf_target.program ~fmt_len:3 in
  let target = C.target "printf3" program in
  let obs = Obs.Sink.create () in
  let r = C.run_local ~obs target in
  let samples = Obs.Sink.metrics_samples obs in
  Alcotest.(check int) "timeline total equals result instructions" r.C.instructions
    (sum_counter samples "worker_useful_instrs");
  Alcotest.(check bool) "solver stats surfaced" true (r.C.solver_stats.Smt.Solver.queries > 0);
  let names =
    List.map (fun rc -> Obs.Event.name rc.Obs.Trace.r_event)
      (Obs.Trace.contents (Obs.Sink.trace obs))
  in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " traced") true (List.mem expected names))
    [ "fork"; "solver_query"; "path_done" ]

(* --- instrumented faulty cluster run ---------------------------------------------- *)

let run_faulty_cluster () =
  let program = Targets.Printf_target.program ~fmt_len:4 in
  let target = C.target "printf4" program in
  let plan =
    Cluster.Faultplan.create
      ~crashes:[ Cluster.Faultplan.crash 1 ~at_tick:10 ~rejoin_after:20 ]
      ~drop_prob:0.05 ~seed:7 ()
  in
  let options =
    { C.default_cluster_options with C.nworkers = 4; speed = 200; fault_plan = plan }
  in
  let obs = Obs.Sink.create () in
  let r = C.run_cluster ~obs ~options target in
  (obs, r)

let test_cluster_run_reconciles () =
  let obs, r = run_faulty_cluster () in
  Alcotest.(check bool) "the crash actually happened" true (r.CD.crashes >= 1);
  let samples = Obs.Sink.metrics_samples obs in
  Alcotest.(check int) "per-worker useful totals equal the result's"
    r.CD.useful_instrs
    (sum_counter samples "worker_useful_instrs");
  Alcotest.(check int) "per-worker replay totals equal the result's"
    r.CD.replay_instrs
    (sum_counter samples "worker_replay_instrs");
  (* the per-worker solver aggregation covers at least every live worker *)
  Alcotest.(check bool) "per-worker solver stats present" true
    (List.length r.CD.per_worker_solver >= 3);
  let live_queries =
    List.fold_left (fun a (_, st) -> a + st.Smt.Solver.queries) 0 r.CD.per_worker_solver
  in
  Alcotest.(check bool) "aggregate includes dead workers" true
    (r.CD.solver_stats.Smt.Solver.queries >= live_queries && live_queries > 0)

let test_chrome_trace_artifact () =
  let obs, _ = run_faulty_cluster () in
  let path = Filename.temp_file "c9trace" ".json" in
  let oc = open_out path in
  Obs.Sink.write_chrome_trace obs oc;
  close_out oc;
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let events =
    match J.parse_exn text with
    | J.Arr l -> l
    | _ -> Alcotest.fail "trace must be one JSON array"
  in
  let phases = List.filter_map (fun e -> Option.bind (J.member "ph" e) J.to_str) events in
  Alcotest.(check int) "every event carries a phase" (List.length events)
    (List.length phases);
  List.iter
    (fun ph ->
      Alcotest.(check bool) ("has phase " ^ ph) true (List.mem ph phases))
    [ "M"; "C"; "i" ];
  let names = List.filter_map (fun e -> Option.bind (J.member "name" e) J.to_str) events in
  List.iter
    (fun n -> Alcotest.(check bool) ("event " ^ n ^ " present") true (List.mem n names))
    [ "crash"; "rejoin"; "job_transfer"; "lease_grant"; "solver_query"; "util/w0" ]

let test_metrics_jsonl_roundtrip () =
  let obs, _ = run_faulty_cluster () in
  let samples = Obs.Sink.metrics_samples obs in
  let buf = Buffer.create 4096 in
  M.write_jsonl buf samples;
  match Obs.Report.parse_jsonl (Buffer.contents buf) with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
    Alcotest.(check int) "sample cardinality survives" (List.length samples)
      (List.length parsed);
    Alcotest.(check int) "counter values survive"
      (sum_counter samples "worker_useful_instrs")
      (sum_counter parsed "worker_useful_instrs");
    let rendered = Obs.Report.render_string parsed in
    List.iter
      (fun needle ->
        let present =
          let n = String.length needle and m = String.length rendered in
          let rec scan i = i + n <= m && (String.sub rendered i n = needle || scan (i + 1)) in
          scan 0
        in
        Alcotest.(check bool) ("report mentions " ^ needle) true present)
      [ "worker"; "sat_cache"; "total" ]

let test_report_parse_errors () =
  (match Obs.Report.parse_jsonl "" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "empty dump parses to an empty snapshot");
  match Obs.Report.parse_jsonl "{\"metric\":\"x\",\"type\":\"counter\",\"value\":1}\n???\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed line must be reported"

(* --- searcher names satellite ------------------------------------------------------- *)

let test_searcher_names_in_error () =
  let rng = Random.State.make [| 1 |] in
  (match Engine.Searcher.of_name ~rng "nope" with
  | exception Invalid_argument msg ->
    List.iter
      (fun name ->
        let present =
          let n = String.length name and m = String.length msg in
          let rec scan i = i + n <= m && (String.sub msg i n = name || scan (i + 1)) in
          scan 0
        in
        Alcotest.(check bool) ("error lists " ^ name) true present)
      Engine.Searcher.names
  | _ -> Alcotest.fail "unknown strategy must raise");
  (* every advertised name resolves *)
  List.iter
    (fun name -> ignore (Engine.Searcher.of_name ~rng name))
    Engine.Searcher.names

(* --- progress estimator --------------------------------------------------- *)

let pslice ?(cov = 0.0) ?(useful = 1000) ?(replay = 100) ?(queries = 10)
    ?(depths = [ 1; 3; 5 ]) ?(crashes = 0) ?(retransmits = 0) () =
  {
    Obs.Progress.sl_coverage = cov;
    sl_useful = useful;
    sl_replay = replay;
    sl_solver_queries = queries;
    sl_frontier_depths = depths;
    sl_crashes = crashes;
    sl_retransmits = retransmits;
  }

let test_progress_eta_confidence () =
  let module P = Obs.Progress in
  (match P.create ~alpha:0.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "alpha 0 must be rejected");
  (match P.create ~alpha:1.5 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "alpha > 1 must be rejected");
  let p = P.create () in
  Alcotest.(check (option int)) "no slices -> no ETA" None (P.eta_slices p);
  (* warm start: the first sample IS the estimate *)
  P.observe p (pslice ~cov:0.1 ());
  Alcotest.(check (float 1e-9)) "warm-start velocity" 0.1 (P.coverage_velocity p);
  Alcotest.(check (option int)) "below confidence floor" None (P.eta_slices p);
  P.observe p (pslice ~cov:0.2 ());
  Alcotest.(check (option int)) "still below floor" None (P.eta_slices p);
  P.observe p (pslice ~cov:0.3 ());
  (* velocity ~0.1/slice, 0.7 to go -> ~7 slices (float EWMA rounding
     makes the ceiling land on 7 or 8) *)
  (match P.eta_slices p with
  | Some n when n = 7 || n = 8 -> ()
  | other ->
    Alcotest.failf "bounded-confidence ETA: expected ~7, got %s"
      (match other with Some n -> string_of_int n | None -> "None"));
  (* a dry run decays velocity and counts toward the stall signal *)
  P.observe p (pslice ~cov:0.3 ());
  Alcotest.(check int) "since gain" 1 (P.slices_since_gain p);
  Alcotest.(check bool) "velocity decays" true (P.coverage_velocity p < 0.1);
  P.observe p (pslice ~cov:1.0 ());
  Alcotest.(check (option int)) "target reached" (Some 0) (P.eta_slices p);
  Alcotest.(check int) "gain resets the stall counter" 0 (P.slices_since_gain p);
  (* zero velocity refuses an ETA even past the confidence floor: the
     resumed-campaign baseline makes every slice coverage-flat *)
  let flat = P.create ~initial_coverage:0.5 () in
  for _ = 1 to 5 do
    P.observe flat (pslice ~cov:0.5 ())
  done;
  Alcotest.(check (option int)) "zero velocity -> no ETA" None (P.eta_slices flat)

let test_progress_signals () =
  let module P = Obs.Progress in
  let p = P.create () in
  P.observe p (pslice ~useful:900 ~replay:100 ~queries:90 ~depths:[ 1; 2; 3; 600 ] ());
  Alcotest.(check (float 1e-9)) "replay share" 0.1 (P.replay_share p);
  Alcotest.(check (float 1e-9)) "solver rate" 0.1 (P.solver_rate p);
  Alcotest.(check int) "frontier size" 4 (P.frontier_size p);
  Alcotest.(check int) "depth max" 600 (P.depth_max p);
  Alcotest.(check (float 1e-9)) "depth mean" 151.5 (P.depth_mean p);
  (* 600 exceeds the last power-of-two bound: it lands in the +inf bucket *)
  let inf_count =
    List.fold_left
      (fun acc (bound, n) -> match bound with None -> acc + n | Some _ -> acc)
      0 (P.depth_histogram p)
  in
  Alcotest.(check int) "+inf bucket" 1 inf_count;
  (* fault EWMA warm-starts off the first faulty slice *)
  P.observe p (pslice ~crashes:2 ~retransmits:1 ());
  Alcotest.(check bool) "fault rate positive" true (P.fault_rate p > 0.0);
  (* the JSON export parses back *)
  match J.parse (J.to_string (P.to_json p)) with
  | Ok (J.Obj fields) ->
    Alcotest.(check bool) "export has eta" true (List.mem_assoc "eta_slices" fields)
  | Ok _ -> Alcotest.fail "progress export not an object"
  | Error e -> Alcotest.failf "progress export unparseable: %s" e

(* --- bench artifact diff --------------------------------------------------- *)

let test_bench_diff_rules () =
  let module BD = Obs.Bench_diff in
  let artifact ~paths ~wall ~ok =
    J.Obj
      [
        ("bench", J.Str "x");
        ("quick", J.Bool false);
        ("total_paths", J.Num (float_of_int paths));
        ("wall_s", J.Num wall);
        ( "rows",
          J.Arr
            [
              J.Obj [ ("tenant", J.Str "a"); ("paths", J.Num 10.0) ];
              J.Obj [ ("tenant", J.Str "b"); ("paths", J.Num 20.0) ];
            ] );
        ("ok", J.Bool ok);
      ]
  in
  let base = artifact ~paths:100 ~wall:1.0 ~ok:true in
  Alcotest.(check bool) "identical ok" true (BD.ok (BD.compare base base));
  (* wall-clock keys are environment-dependent: never a regression *)
  Alcotest.(check bool) "timing drift ignored" true
    (BD.ok (BD.compare base (artifact ~paths:100 ~wall:9.0 ~ok:true)));
  (* a "paths" key is exact: any drop is a regression *)
  Alcotest.(check bool) "path drop flagged" false
    (BD.ok (BD.compare base (artifact ~paths:99 ~wall:1.0 ~ok:true)));
  (* an ok gate flipping true -> false is always a regression *)
  Alcotest.(check bool) "ok flip flagged" false
    (BD.ok (BD.compare base (artifact ~paths:100 ~wall:1.0 ~ok:false)));
  (* identity-keyed rows are matched by key, not position *)
  let swapped =
    J.Obj
      [
        ("bench", J.Str "x");
        ("quick", J.Bool false);
        ("total_paths", J.Num 100.0);
        ("wall_s", J.Num 1.0);
        ( "rows",
          J.Arr
            [
              J.Obj [ ("tenant", J.Str "b"); ("paths", J.Num 20.0) ];
              J.Obj [ ("tenant", J.Str "a"); ("paths", J.Num 10.0) ];
            ] );
        ("ok", J.Bool true);
      ]
  in
  Alcotest.(check bool) "row order irrelevant" true (BD.ok (BD.compare base swapped));
  (* cross-variant comparison (full vs quick) only judges the ok gates *)
  let quick_variant =
    match artifact ~paths:37 ~wall:0.1 ~ok:true with
    | J.Obj fields ->
      J.Obj (List.map (function "quick", _ -> ("quick", J.Bool true) | kv -> kv) fields)
    | v -> v
  in
  Alcotest.(check bool) "variant mismatch: numbers are notes" true
    (BD.ok (BD.compare base quick_variant));
  let quick_bad =
    match quick_variant with
    | J.Obj fields ->
      J.Obj (List.map (function "ok", _ -> ("ok", J.Bool false) | kv -> kv) fields)
    | v -> v
  in
  Alcotest.(check bool) "variant mismatch: ok flip still flagged" false
    (BD.ok (BD.compare base quick_bad))

(* Parallel-runtime counters that depend on where real domains are when
   a steal or a crash lands are notes however far they move; the exact
   counts beside them and the ok gates still regress. *)
let test_bench_diff_scheduling_notes () =
  let module BD = Obs.Bench_diff in
  let artifact ?(paths = 706) ?(errors = 134) ?(tests = 706) ?(ok = true) ?(seconds = 0.0469)
      ?(crash_tick = 15.0) ?(recovered = 36.0) ?(retransmits = 0.0) ~replay ~transfers ~steals () =
    J.Obj
      [
        ("bench", J.Str "faults");
        ("quick", J.Bool false);
        ("fault_free_seconds", J.Num seconds);
        ("crash_tick", J.Num crash_tick);
        ( "runs",
          J.Arr
            [
              J.Obj
                [
                  ("name", J.Str "crash");
                  ("paths", J.Num (float_of_int paths));
                  ("errors", J.Num (float_of_int errors));
                  ("tests", J.Num (float_of_int tests));
                  ("recovered_jobs", J.Num recovered);
                  ("retransmits", J.Num retransmits);
                  ("recovery_replay_instrs", J.Num replay);
                  ("transfers", J.Num transfers);
                  ("steals", J.Num steals);
                ];
            ] );
        ("ok", J.Bool ok);
      ]
  in
  let base = artifact ~replay:624.0 ~transfers:32.0 ~steals:3.0 () in
  let moved =
    BD.compare base
      (artifact ~recovered:6.0 ~retransmits:1.0 ~replay:0.0 ~transfers:16.0 ~steals:1.0 ())
  in
  Alcotest.(check bool) "scheduling drift is not a regression" true (BD.ok moved);
  Alcotest.(check int) "one note per moved counter" 5 (List.length moved.BD.notes);
  (* the fault-free wall time, and the crash tick derived from it, are
     not compared at all *)
  let timed =
    BD.compare base
      (artifact ~seconds:0.1401 ~crash_tick:44.0 ~replay:624.0 ~transfers:32.0 ~steals:3.0 ())
  in
  Alcotest.(check bool) "wall-clock drift is not a regression" true (BD.ok timed);
  Alcotest.(check int) "nor a note" 0 (List.length timed.BD.notes);
  let regresses name cur = Alcotest.(check bool) name false (BD.ok (BD.compare base cur)) in
  let replay = 742.0 and transfers = 24.0 and steals = 2.0 in
  regresses "paths drift flagged" (artifact ~paths:705 ~replay ~transfers ~steals ());
  regresses "errors drift flagged" (artifact ~errors:135 ~replay ~transfers ~steals ());
  regresses "tests drift flagged" (artifact ~tests:700 ~replay ~transfers ~steals ());
  regresses "gate flip flagged" (artifact ~ok:false ~replay ~transfers ~steals ())

(* --- prometheus exposition ------------------------------------------------- *)

let test_prometheus_exposition () =
  let reg = M.create () in
  M.add (M.counter reg "c9_paths" ~labels:[ ("tenant", "a") ]) 7;
  M.set (M.gauge reg "c9_frac") 0.5;
  let h = M.histogram reg "c9_lat" ~buckets:[| 1.0; 2.0 |] in
  M.observe h 0.5;
  M.observe h 1.5;
  M.observe h 99.0;
  let buf = Buffer.create 256 in
  M.write_prometheus buf (M.snapshot reg);
  let text = Buffer.contents buf in
  let has s =
    let n = String.length s and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = s || go (i + 1)) in
    go 0
  in
  List.iter
    (fun line -> Alcotest.(check bool) line true (has line))
    [
      "# TYPE c9_paths counter";
      "c9_paths{tenant=\"a\"} 7";
      "# TYPE c9_frac gauge";
      "c9_frac 0.5";
      "# TYPE c9_lat histogram";
      "c9_lat_bucket{le=\"1\"} 1";
      (* cumulative: the le="2" bucket includes the le="1" observation *)
      "c9_lat_bucket{le=\"2\"} 2";
      "c9_lat_bucket{le=\"+Inf\"} 3";
      "c9_lat_count 3";
    ]

let () =
  Alcotest.run "obs"
    [
      ( "json",
        Alcotest.test_case "roundtrip" `Quick test_json_roundtrip
        :: List.map QCheck_alcotest.to_alcotest [ prop_json_print_parse ] );
      ( "metrics",
        [
          Alcotest.test_case "instruments" `Quick test_metrics_instruments;
          Alcotest.test_case "families + type mismatch" `Quick test_metrics_families_and_mismatch;
          Alcotest.test_case "diff" `Quick test_metrics_diff;
          Alcotest.test_case "percentile" `Quick test_percentile;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_merge_into ] );
      ( "buffered sink",
        [
          Alcotest.test_case "threshold flush" `Quick test_buffered_threshold_flush;
          Alcotest.test_case "flush merges metrics once" `Quick test_buffered_flush_merges_once;
          Alcotest.test_case "flush with empty buffer" `Quick test_buffered_flush_empty;
          Alcotest.test_case "chrome dual time base" `Quick test_chrome_trace_dual_timebase;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring bound" `Quick test_trace_ring_bound;
          Alcotest.test_case "spill" `Quick test_trace_spill;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "deltas + reset" `Quick test_timeline_deltas_and_reset;
          Alcotest.test_case "double crash/rejoin reconciles" `Quick test_timeline_double_reset;
        ] );
      ( "integration",
        [
          Alcotest.test_case "local run reconciles" `Quick test_local_run_reconciles;
          Alcotest.test_case "cluster run reconciles" `Quick test_cluster_run_reconciles;
          Alcotest.test_case "chrome trace artifact" `Quick test_chrome_trace_artifact;
          Alcotest.test_case "metrics jsonl roundtrip" `Quick test_metrics_jsonl_roundtrip;
          Alcotest.test_case "report parse errors" `Quick test_report_parse_errors;
        ] );
      ("searcher", [ Alcotest.test_case "names in error" `Quick test_searcher_names_in_error ]);
      ( "progress",
        [
          Alcotest.test_case "bounded-confidence ETA" `Quick test_progress_eta_confidence;
          Alcotest.test_case "rate + histogram signals" `Quick test_progress_signals;
        ] );
      ( "bench diff",
        [
          Alcotest.test_case "rules" `Quick test_bench_diff_rules;
          Alcotest.test_case "scheduling-dependent counters are notes" `Quick
            test_bench_diff_scheduling_notes;
        ] );
      ("prometheus", [ Alcotest.test_case "text exposition" `Quick test_prometheus_exposition ]);
    ]
