(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (section 7), plus the ablation benches listed in
   DESIGN.md and a Bechamel micro-benchmark suite of the engine's
   primitive costs.

     dune exec bench/main.exe              run everything
     dune exec bench/main.exe -- fig7 t5   run selected experiments

   Time is virtual (see DESIGN.md): one tick nominally 100 ms, so one
   virtual minute is 600 ticks.  Absolute numbers are not comparable to
   the paper's EC2 cluster; the *shapes* are the reproduction target and
   each experiment prints the expected shape next to its data. *)

module C = Core.Cloud9
module CD = Cluster.Driver
module ED = Engine.Driver

let vmin = 600 (* ticks per virtual minute *)

let line () = print_endline (String.make 78 '-')

let section name what =
  line ();
  Printf.printf "%s\n%s\n" name what;
  line ()

(* --- generic runners -------------------------------------------------------- *)

let make_worker ?(max_steps = 2_000_000) ?global_alloc ?obs program id =
  let obs = Option.map (fun s -> Obs.Sink.for_worker s id) obs in
  let solver = Smt.Solver.create ?obs () in
  let cfg =
    Posix.Api.make_config ~solver ?obs ~max_steps ?global_alloc
      ~nlines:program.Cvm.Program.nlines ()
  in
  let make_root () = Posix.Api.initial_state program ~args:[] in
  Cluster.Worker.create ~id ~cfg ~make_root ~seed:42 ()

let cluster ?(speed = 100) ?(status = 5) ?(latency = 1) ?lb_disable_at ?(goal = CD.Exhaust)
    ?(max_ticks = 5_000_000) ?(bucket = vmin) ?max_steps ?global_alloc ?obs
    ?(faults = Cluster.Faultplan.none) ~nworkers program =
  let cfg =
    {
      CD.nworkers;
      make_worker = make_worker ?max_steps ?global_alloc ?obs program;
      join_tick = (fun _ -> 0);
      speed = (fun _ -> speed);
      status_interval = status;
      latency;
      lb_disable_at;
      goal;
      max_ticks;
      bucket_ticks = bucket;
      coverable_lines = List.length (Cvm.Program.covered_lines program);
      faults;
      init_frontier = None;
      init_bans = [];
    }
  in
  CD.run ?obs cfg

let write_obs_artifacts obs ~trace ~metrics =
  let with_out path f =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)
  in
  with_out trace (Obs.Sink.write_chrome_trace obs);
  with_out metrics (Obs.Sink.write_metrics_jsonl obs);
  Printf.printf "wrote %s and %s\n" trace metrics

let local ?(strategy = "interleaved") ?max_steps ?(goal = ED.Exhaust) ?solver program =
  let solver = match solver with Some s -> s | None -> Smt.Solver.create () in
  let cfg = Posix.Api.make_config ~solver ?max_steps ~nlines:program.Cvm.Program.nlines () in
  let rng = Random.State.make [| 42 |] in
  let searcher = Engine.Searcher.of_name ~rng strategy in
  let st0 = Posix.Api.initial_state program ~args:[] in
  let r = ED.run ~collect_tests:0 ~goal cfg searcher st0 in
  (cfg, r)

(* An A/B overhead estimate: [leg ~on] runs one timed leg and returns
   (seconds, result).  One unmeasured warm-up pair pages in code and
   warms allocator state; then [trials] pairs run with the leg order
   alternating within each pair, so drift cannot bias one side, and
   [same i r_off r_on] checks each pair's results.  The overhead is the
   smaller of the min-of-N and median on/off ratios: host noise inflates
   each independently (a descheduled run lands in one statistic or the
   other), while a real regression inflates both. *)
type ab = {
  min_off : float;
  min_on : float;
  median_off : float;
  median_on : float;
  overhead_pct : float;
}

let ab_overhead ?budget_pct ~trials ~leg ~same () =
  ignore (leg ~on:false);
  ignore (leg ~on:true);
  let t_off = Array.make trials 0.0 and t_on = Array.make trials 0.0 in
  for i = 0 to trials - 1 do
    let off_first = i mod 2 = 0 in
    let a = leg ~on:(not off_first) in
    let b = leg ~on:off_first in
    let (dt_off, r_off), (dt_on, r_on) = if off_first then (a, b) else (b, a) in
    same i r_off r_on;
    t_off.(i) <- dt_off;
    t_on.(i) <- dt_on
  done;
  let minimum a = Array.fold_left Float.min infinity a in
  let median a =
    let s = Array.copy a in
    Array.sort compare s;
    s.(Array.length s / 2)
  in
  let ratio a b = if b > 1e-9 then a /. b else 1.0 in
  let min_off = minimum t_off and min_on = minimum t_on in
  let median_off = median t_off and median_on = median t_on in
  let ratio_min = ratio min_on min_off and ratio_med = ratio median_on median_off in
  let overhead_pct = 100.0 *. (Float.min ratio_min ratio_med -. 1.0) in
  Printf.printf "  off: min %.3f s, median %.3f s;  on: min %.3f s, median %.3f s\n" min_off
    median_off min_on median_on;
  Printf.printf "  min ratio %.3f, median ratio %.3f -> overhead %+.2f%%%s\n%!" ratio_min
    ratio_med overhead_pct
    (match budget_pct with Some b -> Printf.sprintf " (budget %.1f%%)" b | None -> "");
  { min_off; min_on; median_off; median_on; overhead_pct }

(* workloads shared by several figures *)
let mc2 = lazy (Targets.Memcached_mini.symbolic_packets ~npackets:2 ~pkt_len:6)
let mc2_small = lazy (Targets.Memcached_mini.symbolic_packets ~npackets:2 ~pkt_len:5)
let mc3 = lazy (Targets.Memcached_mini.symbolic_packets ~npackets:3 ~pkt_len:5)
let printf5 = lazy (Targets.Printf_target.program ~fmt_len:5)
let test3 = lazy (Targets.Test_target.program ~ntokens:3)

let ticks_to_minutes t = float_of_int t /. float_of_int vmin

(* ====================================================================== *)
(* Table 4: testing targets that run on the platform                       *)
(* ====================================================================== *)

let table4 () =
  section "Table 4" "Testing targets running on the platform (sizes are ours, not the originals')";
  Printf.printf "%-12s %-28s %10s %8s\n" "System" "Type of Software" "IR instrs" "stmts";
  List.iter
    (fun (name, kind, instrs, lines) ->
      Printf.printf "%-12s %-28s %10d %8d\n" name kind instrs lines)
    (Core.Registry.table4 ())

(* ====================================================================== *)
(* Figure 7: time to exhaust the memcached symbolic test vs cluster size   *)
(* ====================================================================== *)

let fig7 () =
  section "Figure 7"
    "Time to exhaustively explore two symbolic packets in memcached.\n\
     Expected shape: each doubling of workers roughly halves completion time.";
  let program = Lazy.force mc2 in
  Printf.printf "%8s %14s %10s %12s %12s\n" "workers" "time [vmin]" "paths" "useful" "replay";
  let base = ref 0.0 in
  List.iter
    (fun nworkers ->
      let r = cluster ~nworkers ~speed:60 program in
      let t = ticks_to_minutes r.CD.ticks in
      if nworkers = 1 then base := t;
      (* degenerate runs (goal met in ~0 ticks) would print inf/nan *)
      let speedup =
        if !base > 1e-9 && t > 1e-9 then Printf.sprintf "%5.1fx" (!base /. t) else "  n/a"
      in
      Printf.printf "%8d %14.2f %10d %12d %12d   (speedup %s)\n%!" nworkers t
        r.CD.total_paths r.CD.useful_instrs r.CD.replay_instrs speedup)
    [ 1; 2; 4; 6; 12; 24; 48 ]

(* ====================================================================== *)
(* Figure 8: time to reach a target coverage level for printf              *)
(* ====================================================================== *)

let fig8 () =
  section "Figure 8"
    "Time to reach 50..90% line coverage of printf vs cluster size.\n\
     Expected shape: time decreases with workers; higher targets need more time.";
  (* fmt_len 8 so the deepest per-position handling (4 specifiers) is
     reachable but expensive: high coverage requires real exploration *)
  let program = Targets.Printf_target.program ~fmt_len:7 in
  let levels = [ 0.5; 0.6; 0.7; 0.8; 0.9 ] in
  Printf.printf "%8s" "workers";
  List.iter (fun l -> Printf.printf "%9.0f%%" (100.0 *. l)) levels;
  Printf.printf "   (time to reach level, vmin)\n";
  List.iter
    (fun nworkers ->
      (* one exhaustive run per cluster size; extract level-crossing times
         from the bucket time series *)
      let r =
        cluster ~nworkers ~speed:10 ~bucket:30 ~goal:(CD.Coverage_target 0.9)
          ~max_ticks:(40 * vmin) program
      in
      Printf.printf "%8d" nworkers;
      List.iter
        (fun level ->
          let crossing = List.find_opt (fun b -> b.CD.coverage >= level) r.CD.buckets in
          match crossing with
          | Some b -> Printf.printf "%10.2f" (ticks_to_minutes (b.CD.b_start_tick + 30))
          | None ->
            (* the run stops the moment the goal is met, so the crossing
               may fall inside the final, unrecorded bucket *)
            if r.CD.final_coverage >= level then
              Printf.printf "%10.2f" (ticks_to_minutes r.CD.ticks)
            else Printf.printf "%10s" "-")
        levels;
      Printf.printf "\n%!")
    [ 1; 4; 8; 24; 48 ]

(* ====================================================================== *)
(* Figure 9: useful work for memcached at fixed times vs cluster size      *)
(* ====================================================================== *)

let fig9 () =
  section "Figure 9"
    "Useful (non-replay) instructions executed in 4..10 virtual minutes, and\n\
     the same normalized per worker.  Expected shape: total grows ~linearly\n\
     with workers; the per-worker value stays roughly flat.";
  let program = Lazy.force mc3 in
  let minutes = [ 4; 6; 8; 10 ] in
  Printf.printf "%8s" "workers";
  List.iter (fun m -> Printf.printf "%12s" (Printf.sprintf "%d min" m)) minutes;
  Printf.printf "   (total useful instructions)\n";
  let per_worker = ref [] in
  List.iter
    (fun nworkers ->
      let r = cluster ~nworkers ~speed:10 ~goal:CD.Time_limit ~max_ticks:(10 * vmin) program in
      let at_minute m =
        (* cumulative useful instructions recorded at each 1-vmin bucket *)
        match List.nth_opt r.CD.buckets (m - 1) with
        | Some b -> b.CD.useful
        | None -> r.CD.useful_instrs
      in
      Printf.printf "%8d" nworkers;
      List.iter (fun m -> Printf.printf "%12d" (at_minute m)) minutes;
      Printf.printf "\n%!";
      per_worker := (nworkers, List.map at_minute minutes) :: !per_worker)
    [ 1; 4; 6; 12; 24; 48 ];
  Printf.printf "%8s" "workers";
  List.iter (fun m -> Printf.printf "%12s" (Printf.sprintf "%d min" m)) minutes;
  Printf.printf "   (normalized: useful instructions / worker)\n";
  List.iter
    (fun (nworkers, vals) ->
      Printf.printf "%8d" nworkers;
      List.iter (fun v -> Printf.printf "%12d" (v / nworkers)) vals;
      Printf.printf "\n")
    (List.rev !per_worker)

(* ====================================================================== *)
(* Figure 10: useful work for printf and test vs cluster size              *)
(* ====================================================================== *)

let fig10 () =
  section "Figure 10"
    "Useful work on the two UNIX utilities at fixed virtual times.\n\
     Expected shape: roughly linear growth with cluster size, as for memcached.";
  (* the utilities are an order of magnitude smaller than memcached, so
     this experiment uses a compressed virtual minute (75 ticks) and slow
     workers to keep 48 workers from exhausting the tree *)
  let umin = 75 in
  let minutes = [ 30; 40; 50; 60 ] in
  List.iter
    (fun (name, program) ->
      Printf.printf "%s:\n%8s" name "workers";
      List.iter (fun m -> Printf.printf "%12s" (Printf.sprintf "%d min" m)) minutes;
      Printf.printf "   (total useful instructions)\n";
      List.iter
        (fun nworkers ->
          let r =
            cluster ~nworkers ~speed:1 ~goal:CD.Time_limit ~bucket:umin
              ~max_ticks:(60 * umin) program
          in
          let at_minute m =
            match List.nth_opt r.CD.buckets (m - 1) with
            | Some b -> b.CD.useful
            | None -> r.CD.useful_instrs
          in
          Printf.printf "%8d" nworkers;
          List.iter (fun m -> Printf.printf "%12d" (at_minute m)) minutes;
          Printf.printf "\n%!")
        [ 1; 4; 12; 24; 48 ])
    [ ("printf", Lazy.force printf5); ("test", Lazy.force test3) ]

(* ====================================================================== *)
(* Figure 11: coverage increase on the 96 Coreutils, 1 vs 12 workers       *)
(* ====================================================================== *)

let fig11 () =
  section "Figure 11"
    "Line coverage on the 96 generated Coreutils: 1-worker baseline vs the\n\
     additional coverage a 12-worker cluster attains in the same virtual time.\n\
     Expected shape: additional coverage everywhere nonnegative, large for some\n\
     utilities, with several reaching 100%.";
  let budget = vmin in
  let rows =
    List.init Targets.Coreutils_gen.count (fun seed ->
        let program = Targets.Coreutils_gen.program seed in
        let run nworkers =
          let r =
            cluster ~nworkers ~speed:10 ~goal:CD.Time_limit ~max_ticks:budget ~bucket:budget
              program
          in
          r.CD.final_coverage
        in
        let base = run 1 in
        let multi = run 12 in
        (seed, base, Float.max 0.0 (multi -. base)))
  in
  Printf.printf "%-6s %10s %12s\n" "util" "baseline%" "additional%";
  List.iter
    (fun (seed, base, add) ->
      Printf.printf "cu%02d   %9.1f %12.1f\n" seed (100.0 *. base) (100.0 *. add))
    rows;
  let adds = List.map (fun (_, _, a) -> a) rows in
  let avg = List.fold_left ( +. ) 0.0 adds /. float_of_int (List.length adds) in
  let mx = List.fold_left Float.max 0.0 adds in
  Printf.printf
    "summary: average additional coverage %.1f%%, maximum %.1f%%, %d utilities at 100%% total\n"
    (100.0 *. avg) (100.0 *. mx)
    (List.length (List.filter (fun (_, b, a) -> b +. a >= 0.999) rows))

(* ====================================================================== *)
(* Table 5: memcached coverage by testing method                           *)
(* ====================================================================== *)

let t5 () =
  section "Table 5"
    "Path count and server-code coverage of each testing method on memcached,\n\
     isolated and cumulated with the concrete test suite.\n\
     Expected shape: symbolic methods multiply paths by orders of magnitude but\n\
     add only a little line coverage on top of the suite (the paper's point\n\
     about line coverage being a weak metric).";
  let module M = Targets.Memcached_mini in
  let server_lines = Lazy.force M.server_line_count in
  (* coverage restricted to the shared server code (lines 1..server_lines) *)
  let server_cov program (vec : Bytes.t) =
    let coverable =
      List.filter (fun l -> l <= server_lines) (Cvm.Program.covered_lines program)
    in
    Engine.Coverage.fraction ~coverable:(List.length coverable)
      (List.length (List.filter (Engine.Coverage.mem vec) coverable))
  in
  let union vecs = List.fold_left Engine.Coverage.union_into (Bytes.create 0) vecs in
  let run_method programs =
    let results =
      List.map
        (fun program ->
          let cfg, r = local ~strategy:"dfs" ~max_steps:400_000 program in
          (program, Bytes.copy cfg.Engine.Executor.coverage, r.ED.paths_explored))
        programs
    in
    let paths = List.fold_left (fun a (_, _, p) -> a + p) 0 results in
    let vec = union (List.map (fun (_, v, _) -> v) results) in
    let prog = match programs with p :: _ -> p | [] -> assert false in
    (paths, vec, prog)
  in
  let suite_programs =
    List.map
      (fun (_, cmds, statuses) -> M.concrete_suite ~commands:cmds ~expected_statuses:statuses ())
      M.test_suite
  in
  let suite_paths, suite_vec, suite_prog = run_method suite_programs in
  let binary_subset =
    List.filter (fun (n, _, _) -> List.mem n [ "bad_magic"; "bad_opcode"; "version" ]) M.test_suite
    |> List.map (fun (_, cmds, statuses) ->
           M.concrete_suite ~commands:cmds ~expected_statuses:statuses ())
  in
  let bin_paths, bin_vec, _ = run_method binary_subset in
  let sym_paths, sym_vec, _ = run_method [ Lazy.force mc2_small ] in
  let fi_programs =
    List.map
      (fun (_, cmds, statuses) ->
        M.concrete_suite ~fault_injection:true ~commands:cmds ~expected_statuses:statuses ())
      M.test_suite
  in
  let fi_paths, fi_vec, _ = run_method fi_programs in
  let suite_cov = server_cov suite_prog suite_vec in
  Printf.printf "%-28s %9s %10s %12s\n" "Testing method" "Paths" "Isolated" "Cumulated";
  Printf.printf "%-28s %9d %9.2f%% %11s\n" "Entire test suite" suite_paths (100.0 *. suite_cov) "-";
  let row name paths vec =
    let iso = server_cov suite_prog vec in
    let cum = server_cov suite_prog (union [ suite_vec; vec ]) in
    Printf.printf "%-28s %9d %9.2f%% %10.2f%% (%+.2f%%)\n" name paths (100.0 *. iso)
      (100.0 *. cum)
      (100.0 *. (cum -. suite_cov))
  in
  row "Binary protocol subset" bin_paths bin_vec;
  row "Symbolic packets (2)" sym_paths sym_vec;
  row "Suite + fault injection" fi_paths fi_vec

(* ====================================================================== *)
(* Figure 12: states transferred between workers over time                 *)
(* ====================================================================== *)

let fig12 () =
  section "Figure 12"
    "Fraction of candidate states transferred between workers per bucket during\n\
     a 48-worker exhaustive memcached run.\n\
     Expected shape: load balancing is continuous — a few percent of all states\n\
     move in nearly every bucket.";
  let r = cluster ~nworkers:48 ~speed:20 ~status:10 ~bucket:100 (Lazy.force mc3) in
  Printf.printf "%14s %12s %12s %10s\n" "time [vmin]" "transferred" "candidates" "%moved";
  List.iter
    (fun b ->
      let pct =
        if b.CD.candidates = 0 then 0.0
        else 100.0 *. float_of_int b.CD.transferred /. float_of_int b.CD.candidates
      in
      Printf.printf "%14.1f %12d %12d %9.1f%%\n" (ticks_to_minutes (b.CD.b_start_tick + 100))
        b.CD.transferred b.CD.candidates pct)
    r.CD.buckets;
  Printf.printf "total: %d states transferred across %d buckets\n" r.CD.transfers
    (List.length r.CD.buckets)

(* ====================================================================== *)
(* Figure 13: effect of disabling load balancing mid-run                   *)
(* ====================================================================== *)

let fig13 () =
  section "Figure 13"
    "Useful work over time on 48 workers with the load balancer disabled at\n\
     different moments.  Expected shape: the earlier balancing stops, the lower\n\
     the curve flattens — static partitions starve workers.";
  (* a tree the 48-worker cluster CAN exhaust within the window: without
     rebalancing, workers that drain their static partition sit idle *)
  let program = Lazy.force mc2 in
  let total_minutes = 12 in
  let configs =
    [ ("continuous", None) ]
    @ List.map (fun m -> (Printf.sprintf "LB stops %dmin" m, Some (m * vmin))) [ 6; 4; 2; 1 ]
  in
  let series =
    List.map
      (fun (name, lb_disable_at) ->
        let r =
          cluster ~nworkers:48 ~speed:2 ?lb_disable_at ~goal:CD.Time_limit
            ~max_ticks:(total_minutes * vmin) program
        in
        (name, List.map (fun b -> b.CD.useful) r.CD.buckets))
      configs
  in
  let continuous_total =
    match series with (_, vals) :: _ -> List.fold_left max 1 vals | [] -> 1
  in
  Printf.printf "%-16s" "time [vmin]:";
  List.iteri (fun i _ -> Printf.printf "%8d" (i + 1)) (snd (List.hd series));
  Printf.printf "\n";
  List.iter
    (fun (name, vals) ->
      Printf.printf "%-16s" name;
      List.iter
        (fun v ->
          Printf.printf "%7.0f%%" (100.0 *. float_of_int v /. float_of_int continuous_total))
        vals;
      Printf.printf "\n%!")
    series

(* ====================================================================== *)
(* Table 6: lighttpd fragmentation matrix                                  *)
(* ====================================================================== *)

let t6 () =
  section "Table 6"
    "Behavior of lighttpd versions under three request fragmentation patterns.\n\
     Expected: 1x28 OK/OK; 26+2 crash/OK; complex crash/crash.";
  let module L = Targets.Lighttpd_mini in
  Printf.printf "%-26s %-18s %-18s\n" "Fragmentation pattern" "ver 1.4.12" "ver 1.4.13";
  List.iter
    (fun (pname, pattern) ->
      let outcome version =
        let _, r = local ~strategy:"dfs" (L.program version pattern) in
        if r.ED.errors > 0 then "crash + hang" else "OK"
      in
      Printf.printf "%-26s %-18s %-18s\n%!" pname (outcome L.V12) (outcome L.V13))
    [
      ("1 x 28", L.pattern_whole);
      ("1 x 26 + 1 x 2", L.pattern_split);
      ("2+5+1+5+2x1+3x2+5+2x1", L.pattern_complex);
    ]

(* ====================================================================== *)
(* Ablation benches (DESIGN.md)                                            *)
(* ====================================================================== *)

let ablation_encoding () =
  section "Ablation 1: job transfer encoding"
    "Path encoding vs job-tree prefix sharing vs serialized state, for a batch\n\
     of 32 jobs from a live memcached frontier.";
  let program = Lazy.force mc2_small in
  let w = make_worker program 0 in
  Cluster.Worker.seed_root w;
  ignore (Cluster.Worker.execute w ~budget:30_000);
  let jobs = Cluster.Worker.transfer_out w ~count:32 in
  let naive = Cluster.Job.naive_encoded_size jobs in
  let tree = Cluster.Job.tree_encoded_size jobs in
  let st = Posix.Api.initial_state program ~args:[] in
  let state_bytes =
    Cluster.Job.state_encoded_size
      ~memory_bytes:(Cvm.Memory.footprint st.Engine.State.mem ~pid:0)
  in
  Printf.printf "jobs in batch:               %d\n" (List.length jobs);
  Printf.printf "naive per-path encoding:     %6d bytes\n" naive;
  Printf.printf "job-tree (prefix sharing):   %6d bytes  (%.0f%% of naive)\n" tree
    (100.0 *. float_of_int tree /. float_of_int (max 1 naive));
  Printf.printf "serialized state (per job):  %6d bytes  -> %d bytes for the batch\n" state_bytes
    (state_bytes * List.length jobs)

let ablation_allocator () =
  section "Ablation 2: deterministic per-state allocator (paper 6, Broken Replays)"
    "A workload whose branch conditions depend on allocated addresses, explored\n\
     by a 4-worker cluster.  Expected: zero broken replays with the per-state\n\
     allocator; broken replays and lost paths with a global allocator.";
  let open Lang.Builder in
  let program =
    compile
      (cunit ~entry:"main"
         [
           fn "grab" [] (Some u64)
             [
               decl_arr "slot" u8 16;
               (* the frame object's address feeds the branch threshold *)
               ret (cast u64 (addr (idx (v "slot") (n 0))));
             ];
           fn "main" [] (Some u32)
             [
               decl_arr "x" u8 8;
               expr (Posix.Api.make_symbolic (addr (idx (v "x") (n 0))) (n 8) "x");
               decl "acc" u32 (Some (n 0));
               for_range "i" ~from:(n 0) ~below:(n 8)
                 [
                   decl "threshold" u8 (Some (cast u8 (call "grab" [] >>! n 4) &! n 63));
                   when_ (idx (v "x") (v "i") <! v "threshold")
                     [ set (v "acc") (v "acc" +! n 1) ];
                   when_ (idx (v "x") (v "i") >! n 200) [ set (v "acc") (v "acc" +! n 2) ];
                 ];
               halt (v "acc");
             ];
         ])
  in
  let reference = (cluster ~nworkers:1 ~speed:100 program).CD.total_paths in
  let run name global_alloc =
    (* snapshots off: every replay re-executes, exercising the allocator *)
    let mk ga id =
      let solver = Smt.Solver.create () in
      let cfg =
        Posix.Api.make_config ~solver ~max_steps:2_000_000 ?global_alloc:ga
          ~nlines:program.Cvm.Program.nlines ()
      in
      let make_root () = Posix.Api.initial_state program ~args:[] in
      Cluster.Worker.create ~id ~cfg ~make_root ~seed:42 ~snap_limit:0 ()
    in
    let cfg =
      {
        CD.nworkers = 4;
        make_worker = mk global_alloc;
        join_tick = (fun _ -> 0);
        speed = (fun _ -> 100);
        status_interval = 5;
        latency = 1;
        lb_disable_at = None;
        goal = CD.Exhaust;
        max_ticks = 2_000_000;
        bucket_ticks = vmin;
        coverable_lines = List.length (Cvm.Program.covered_lines program);
        faults = Cluster.Faultplan.none;
        init_frontier = None;
        init_bans = [];
        }
    in
    let r = CD.run cfg in
    Printf.printf "%-22s paths=%4d (reference %d)  broken replays=%d\n" name r.CD.total_paths
      reference r.CD.broken_replays
  in
  run "per-state allocator" None;
  run "global allocator" (Some (Some (ref 0x1000)))

let ablation_caches () =
  section "Ablation 3: solver caches"
    "Full exploration of printf with solver optimizations toggled.\n\
     Expected: caches and independence cut SAT-solver invocations drastically.";
  let program = Targets.Printf_target.program ~fmt_len:4 in
  let configs =
    [
      ("all optimizations", true, true, true);
      ("no sat cache", false, true, true);
      ("no cex cache", true, false, true);
      ("no independence", true, true, false);
      ("none", false, false, false);
    ]
  in
  Printf.printf "%-20s %10s %10s %10s %8s\n" "configuration" "queries" "SAT calls" "cachehits"
    "time";
  List.iter
    (fun (name, sat_c, cex_c, indep) ->
      let solver =
        Smt.Solver.create ~use_sat_cache:sat_c ~use_cex_cache:cex_c ~use_independence:indep ()
      in
      let t0 = Unix.gettimeofday () in
      let _cfg, r = local ~strategy:"dfs" ~solver program in
      let dt = Unix.gettimeofday () -. t0 in
      let st = Smt.Solver.stats solver in
      assert (r.ED.exhausted);
      Printf.printf "%-20s %10d %10d %10d %7.2fs\n%!" name st.Smt.Solver.queries
        st.Smt.Solver.sat_calls
        (st.Smt.Solver.cache_hits + st.Smt.Solver.cex_hits)
        dt)
    configs

let ablation_strategies () =
  section "Ablation 4: search strategies"
    "Line coverage after a fixed 6k-instruction budget on printf.\n\
     Expected: coverage-guided and random-path beat plain DFS.";
  Printf.printf "%-16s %10s %8s\n" "strategy" "coverage" "paths";
  List.iter
    (fun strategy ->
      let _cfg, r = local ~strategy ~goal:(ED.Instructions 6_000) (Lazy.force printf5) in
      Printf.printf "%-16s %9.1f%% %8d\n%!" strategy (100.0 *. r.ED.coverage)
        r.ED.paths_explored)
    [ "dfs"; "bfs"; "random-path"; "cov-opt"; "interleaved" ]

let ablation_static () =
  section "Ablation 5: dynamic balancing vs one-shot static split"
    "8 workers exhaust the memcached test; the static variant splits work once\n\
     and never rebalances.  Expected: the static split finishes later and\n\
     leaves workers idle (imbalanced per-worker useful work).";
  let program = Lazy.force mc2_small in
  let spread r =
    let vals = List.map snd r.CD.per_worker_useful in
    (List.fold_left min max_int vals, List.fold_left max 0 vals)
  in
  let dyn = cluster ~nworkers:8 ~speed:50 program in
  let sta = cluster ~nworkers:8 ~speed:50 ~lb_disable_at:12 program in
  let dmin, dmax = spread dyn and smin, smax = spread sta in
  Printf.printf "%-10s %12s %14s %22s\n" "mode" "time [vmin]" "paths" "per-worker useful";
  Printf.printf "%-10s %12.2f %14d %10d .. %d\n" "dynamic" (ticks_to_minutes dyn.CD.ticks)
    dyn.CD.total_paths dmin dmax;
  Printf.printf "%-10s %12.2f %14d %10d .. %d\n" "static" (ticks_to_minutes sta.CD.ticks)
    sta.CD.total_paths smin smax

let ablation_hetero () =
  section "Ablation 6: heterogeneous workers"
    "8 workers exhaust the memcached test with equal total capacity, either\n\
     uniform or with per-worker speeds spread over ~2x (like the paper's\n\
     2.3-2.6 GHz EC2 mix).  Expected: dynamic balancing absorbs the skew —\n\
     completion times stay close.";
  let program = Lazy.force mc2_small in
  (* both configurations provide 400 instructions/tick in total *)
  let speeds = [| 30; 35; 40; 45; 55; 60; 65; 70 |] in
  let run name speed_fn =
    let cfg =
      {
        (CD.default_config ~nworkers:8 ~make_worker:(make_worker program)
           ~coverable_lines:(List.length (Cvm.Program.covered_lines program))
           ())
        with
        CD.speed = speed_fn;
        status_interval = 5;
        latency = 1;
        max_ticks = 2_000_000;
      }
    in
    let r = CD.run cfg in
    Printf.printf "%-14s time=%6.2f vmin  paths=%d\n%!" name (ticks_to_minutes r.CD.ticks)
      r.CD.total_paths;
    r.CD.ticks
  in
  let uni = run "uniform" (fun _ -> 50) in
  let het = run "heterogeneous" (fun i -> speeds.(i mod 8)) in
  Printf.printf "slowdown from heterogeneity: %.0f%%\n"
    (100.0 *. (float_of_int het /. float_of_int uni -. 1.0))

let ablation_join () =
  section "Ablation 7: staggered worker arrival"
    "8 workers, either all present at start or joining one every 30 ticks\n\
     (the paper's section 3.1 protocol: newcomers report an empty queue and\n\
     the balancer seeds them from loaded workers).  Expected: late arrivals\n\
     cost far less than the capacity lost while absent.";
  let program = Lazy.force mc2_small in
  let run name join_fn =
    let cfg =
      {
        (CD.default_config ~nworkers:8 ~make_worker:(make_worker program)
           ~coverable_lines:(List.length (Cvm.Program.covered_lines program))
           ())
        with
        CD.speed = (fun _ -> 50);
        join_tick = join_fn;
        status_interval = 5;
        latency = 1;
        max_ticks = 2_000_000;
      }
    in
    let r = CD.run cfg in
    Printf.printf "%-14s time=%6.2f vmin  paths=%d  transfers=%d\n%!" name
      (ticks_to_minutes r.CD.ticks) r.CD.total_paths r.CD.transfers;
    r.CD.ticks
  in
  let all = run "all at start" (fun _ -> 0) in
  let stag = run "staggered" (fun i -> i * 30) in
  Printf.printf "arrival staggering cost: %.0f%%\n"
    (100.0 *. (float_of_int stag /. float_of_int all -. 1.0))

let bench_faults () =
  section "Fault tolerance: crashes + lossy links vs a fault-free run"
    "8 workers exhaust the memcached test while the fault plan crashes two of\n\
     them mid-run (one permanently, one rejoining) and drops 5% of messages.\n\
     Expected: identical path and error totals, with the recovery overhead\n\
     visible as extra ticks, recovered jobs and recovery replay instructions.";
  let program = Lazy.force mc2_small in
  let free = cluster ~nworkers:8 ~speed:50 program in
  (* crash in the thick of the exploration: one victim is gone for good,
     the other returns with a fresh engine and an empty frontier *)
  let plan =
    Cluster.Faultplan.create
      ~crashes:
        [
          Cluster.Faultplan.crash 2 ~at_tick:(free.CD.ticks / 3);
          Cluster.Faultplan.crash 5 ~at_tick:(free.CD.ticks / 2) ~rejoin_after:60;
        ]
      ~drop_prob:0.05 ~seed:7 ()
  in
  let obs = Obs.Sink.create () in
  let faulty = cluster ~nworkers:8 ~speed:50 ~faults:plan ~obs program in
  let row name (r : CD.result) =
    Printf.printf
      "%-12s time=%6.2f vmin  paths=%5d errors=%3d crashes=%d recovered=%4d \
       retransmits=%3d recovery-replay=%d\n%!"
      name (ticks_to_minutes r.CD.ticks) r.CD.total_paths r.CD.total_errors r.CD.crashes
      r.CD.recovered_jobs r.CD.retransmits r.CD.recovery_replay_instrs
  in
  row "fault-free" free;
  row "faulty" faulty;
  let overhead =
    100.0 *. (float_of_int faulty.CD.ticks /. float_of_int (max 1 free.CD.ticks) -. 1.0)
  in
  let exact =
    faulty.CD.total_paths = free.CD.total_paths && faulty.CD.total_errors = free.CD.total_errors
  in
  Printf.printf "recovery time overhead: %.0f%%  result exactness: %s\n" overhead
    (if exact then "EXACT" else "MISMATCH");
  let oc = open_out "BENCH_faults.json" in
  Printf.fprintf oc
    "{\n\
    \  \"target\": \"memcached-mini 2x5\",\n\
    \  \"nworkers\": 8,\n\
    \  \"drop_prob\": 0.05,\n\
    \  \"fault_free\": { \"ticks\": %d, \"paths\": %d, \"errors\": %d },\n\
    \  \"faulty\": { \"ticks\": %d, \"paths\": %d, \"errors\": %d,\n\
    \              \"crashes\": %d, \"recovered_jobs\": %d, \"retransmits\": %d,\n\
    \              \"recovery_replay_instrs\": %d },\n\
    \  \"tick_overhead_pct\": %.1f,\n\
    \  \"exact\": %b\n\
     }\n"
    free.CD.ticks free.CD.total_paths free.CD.total_errors faulty.CD.ticks
    faulty.CD.total_paths faulty.CD.total_errors faulty.CD.crashes faulty.CD.recovered_jobs
    faulty.CD.retransmits faulty.CD.recovery_replay_instrs overhead exact;
  close_out oc;
  Printf.printf "wrote BENCH_faults.json\n";
  write_obs_artifacts obs ~trace:"BENCH_faults_trace.json"
    ~metrics:"BENCH_faults_metrics.jsonl"

(* ====================================================================== *)
(* Observability: artifact smoke test and overhead measurement             *)
(* ====================================================================== *)

let smoke () =
  section "Smoke: observability artifacts"
    "A fast 4-worker faulty run with the observability sink attached: writes\n\
     the Chrome trace and metrics JSONL artifacts and reconciles the\n\
     per-worker timeline totals against the driver's result counters.";
  let program = Targets.Printf_target.program ~fmt_len:4 in
  let plan =
    Cluster.Faultplan.create
      ~crashes:[ Cluster.Faultplan.crash 1 ~at_tick:10 ~rejoin_after:20 ]
      ~drop_prob:0.05 ~seed:7 ()
  in
  let obs = Obs.Sink.create () in
  let r = cluster ~nworkers:4 ~speed:200 ~faults:plan ~obs program in
  (* reconcile: the exported per-worker totals must sum to the result's
     instruction counters, crashes and rejoins included *)
  let sum name =
    List.fold_left
      (fun acc (s : Obs.Metrics.sample) ->
        match s.s_value with
        | Obs.Metrics.Vcounter v when s.s_name = name -> acc + v
        | _ -> acc)
      0 (Obs.Sink.metrics_samples obs)
  in
  let useful = sum "worker_useful_instrs" and replay = sum "worker_replay_instrs" in
  let tr = Obs.Sink.trace obs in
  Printf.printf
    "paths=%d crashes=%d  useful %d/%d  replay %d/%d  trace events=%d (%d dropped)\n"
    r.CD.total_paths r.CD.crashes useful r.CD.useful_instrs replay r.CD.replay_instrs
    (Obs.Trace.appended tr) (Obs.Trace.dropped tr);
  if useful <> r.CD.useful_instrs || replay <> r.CD.replay_instrs then begin
    Printf.printf "RECONCILIATION MISMATCH\n";
    exit 1
  end;
  write_obs_artifacts obs ~trace:"BENCH_smoke_trace.json"
    ~metrics:"BENCH_smoke_metrics.jsonl"

let obs_overhead () =
  section "Observability overhead"
    "The same exhaustive 4-worker run with the sink disabled and enabled.\n\
     Expected: enabling tracing + timelines costs a few percent of wall time\n\
     (the budget in DESIGN.md is <2% with the sink disabled, which is the\n\
     default; this bench measures the enabled cost too).";
  let program = Lazy.force mc2_small in
  let leg ~on =
    let obs = if on then Some (Obs.Sink.create ()) else None in
    let t0 = Unix.gettimeofday () in
    let r = cluster ~nworkers:4 ~speed:200 ?obs program in
    (Unix.gettimeofday () -. t0, r)
  in
  ignore
    (ab_overhead ~trials:1 ~leg
       ~same:(fun _ r_off r_on -> assert (r_off.CD.total_paths = r_on.CD.total_paths))
       ())

(* ====================================================================== *)
(* Bechamel micro-benchmarks of the engine primitives                      *)
(* ====================================================================== *)

let micro () =
  section "Microbenchmarks" "Primitive costs measured with Bechamel (ns per run).";
  let open Bechamel in
  let open Toolkit in
  let branch_query =
    (* a fresh branch-feasibility query, solved then cached *)
    let solver = Smt.Solver.create () in
    let x = Smt.Expr.fresh_sym ~name:"bx" 8 in
    let pc = [ Smt.Simplify.simplify (Smt.Expr.ult x (Smt.Expr.const ~width:8 100L)) ] in
    Test.make ~name:"solver.branch_feasible (cached)"
      (Staged.stage (fun () ->
           ignore
             (Smt.Solver.branch_feasible solver ~pc
                (Smt.Expr.ult x (Smt.Expr.const ~width:8 50L)))))
  in
  let sat_solve =
    let x = Smt.Expr.fresh_sym ~name:"sx" 16 in
    let c =
      Smt.Expr.eq
        (Smt.Expr.mul x (Smt.Expr.const ~width:16 7L))
        (Smt.Expr.const ~width:16 6391L)
    in
    Test.make ~name:"solver.full SAT solve (16-bit mul)"
      (Staged.stage (fun () ->
           let solver = Smt.Solver.create ~use_sat_cache:false ~use_cex_cache:false () in
           ignore (Smt.Solver.check solver [ c ])))
  in
  let concrete_run =
    let open Lang.Builder in
    let program =
      compile
        (cunit ~entry:"main"
           [
             fn "main" [] (Some u32)
               [
                 decl "acc" u32 (Some (n 0));
                 for_range "i" ~from:(n 0) ~below:(n 1000)
                   [ set (v "acc") (v "acc" +! v "i") ];
                 halt (v "acc");
               ];
           ])
    in
    Test.make ~name:"engine.1000-iteration concrete run"
      (Staged.stage (fun () ->
           let searcher = Engine.Searcher.dfs () in
           ignore (ED.run_pure ~searcher program ~args:[])))
  in
  let quantum_step =
    let program = Lazy.force mc2_small in
    let solver = Smt.Solver.create () in
    let cfg = Posix.Api.make_config ~solver ~nlines:program.Cvm.Program.nlines () in
    let st0 = Posix.Api.initial_state program ~args:[] in
    (* drive forward 500 instructions so the state is representative *)
    let rec go st n =
      if n = 0 then st
      else
        match Engine.Executor.step cfg ~fuel:1 st with
        | { Engine.Executor.running = st' :: _; _ } -> go st' (n - 1)
        | _ -> st
    in
    let st = go st0 500 in
    Test.make ~name:"engine.quantum step (posix state)"
      (Staged.stage (fun () -> ignore (Engine.Executor.step cfg st)))
  in
  let replay_jobs =
    let program = Lazy.force mc2_small in
    let src = make_worker program 0 in
    Cluster.Worker.seed_root src;
    ignore (Cluster.Worker.execute src ~budget:20_000);
    let jobs = Cluster.Worker.transfer_out src ~count:4 in
    Test.make ~name:"cluster.replay 4 jobs"
      (Staged.stage (fun () ->
           let dst = make_worker program 1 in
           Cluster.Worker.receive_jobs dst jobs;
           let rec drain n =
             if n > 0 && not (Cluster.Worker.is_idle dst) then begin
               ignore (Cluster.Worker.execute dst ~budget:50_000);
               drain (n - 1)
             end
           in
           drain 20))
  in
  let tests =
    Test.make_grouped ~name:"cloud9"
      [ branch_query; sat_solve; concrete_run; quantum_step; replay_jobs ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw_results = Benchmark.all cfg instances tests in
  let results = List.map (fun instance -> Analyze.all ols instance raw_results) instances in
  let results = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _measure by_test ->
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "%-44s %14.0f ns/run\n" name est
          | Some ests ->
            Printf.printf "%-44s %14s\n" name
              (String.concat "," (List.map (Printf.sprintf "%.0f") ests))
          | None -> Printf.printf "%-44s %14s\n" name "n/a")
        by_test)
    results

(* ====================================================================== *)
(* Solver hot-path benchmark: exhaustive runs through the one solver path *)
(* ====================================================================== *)

(* One scenario's measurements. *)
type solver_run = {
  sl_cfg : Posix.Env.t Engine.Executor.config;
  sl_r : Posix.Env.t ED.result;
  sl_ss : Smt.Solver.stats;
  sl_rw : Smt.Simplify.rw_stats;
  sl_inc : Smt.Solver.inc_stats;
  sl_sat : Smt.Sat.stats option; (* live persistent instance, if any *)
  sl_elapsed : float;
  sl_spans : int;        (* solver_query spans recorded *)
  sl_p50 : float option; (* per-query latency percentiles, ns *)
  sl_p99 : float option;
  sl_nsq : float;
}

let bench_solver () =
  section "Solver benchmark"
    "Exhaustive single-worker runs through the solver stack every run uses:\n\
     memoized simplify, the incrementally normalized pc, fused fork\n\
     queries, and a persistent assumption-queried SAT instance with\n\
     cross-fork clause reuse.  Paths, tests and errors must\n\
     match the pinned totals, every query must land in exactly one tier\n\
     and close one span, and clause groups must be reused.\n\
     Writes BENCH_solver.json.";
  (* name, program, pinned (paths, tests, errors) *)
  let scenarios =
    [
      ("printf5", Lazy.force printf5, (3581, 3581, 0));
      ("test3", Lazy.force test3, (950, 950, 0));
      ("memcached2", Lazy.force mc2_small, (706, 706, 134));
    ]
  in
  (* aggregate the per-tier solver_query histograms of one run's sink
     (identical buckets, so counts line up index-for-index) *)
  let solver_hist samples =
    let n = Array.length Obs.Metrics.latency_ns_buckets + 1 in
    let counts = Array.make n 0 in
    let sum = ref 0.0 in
    let total = ref 0 in
    List.iter
      (fun (s : Obs.Metrics.sample) ->
        if
          s.Obs.Metrics.s_name = "latency_ns"
          && List.assoc_opt "kind" s.Obs.Metrics.s_labels = Some "solver_query"
        then
          match s.Obs.Metrics.s_value with
          | Obs.Metrics.Vhistogram h when Array.length h.vcounts = n ->
            Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) h.vcounts;
            sum := !sum +. h.vsum;
            total := !total + h.vcount
          | _ -> ())
      samples;
    if !total = 0 then None
    else
      Some
        (Obs.Metrics.Vhistogram
           {
             vbounds = Array.copy Obs.Metrics.latency_ns_buckets;
             vcounts = counts;
             vsum = !sum;
             vcount = !total;
           })
  in
  let hcount = function Some (Obs.Metrics.Vhistogram h) -> h.vcount | _ -> 0 in
  let run program =
    (* collect the previous scenario's terms, and with them their memoized
       simplified forms, so each scenario's rewriter counts start cold *)
    Gc.full_major ();
    Smt.Simplify.reset_stats ();
    let sink = Obs.Sink.create () in
    let prof = Obs.Profile.create sink in
    let solver = Smt.Solver.create ~obs:sink ~prof () in
    let cfg =
      Posix.Api.make_config ~solver ~max_steps:2_000_000 ~nlines:program.Cvm.Program.nlines ()
    in
    let rng = Random.State.make [| 42 |] in
    let searcher = Engine.Searcher.of_name ~rng "dfs" in
    let st0 = Posix.Api.initial_state program ~args:[] in
    let t0 = Unix.gettimeofday () in
    let r = ED.run ~collect_tests:10_000 cfg searcher st0 in
    let elapsed = Unix.gettimeofday () -. t0 in
    let ss = Smt.Solver.copy_stats solver in
    let hist = solver_hist (Obs.Sink.metrics_samples sink) in
    let pct q = Option.bind hist (fun v -> Obs.Metrics.percentile v q) in
    {
      sl_cfg = cfg;
      sl_r = r;
      sl_ss = ss;
      sl_rw = Smt.Simplify.stats ();
      sl_inc = Smt.Solver.copy_inc_stats solver;
      sl_sat = Smt.Solver.inc_sat_stats solver;
      sl_elapsed = elapsed;
      sl_spans = hcount hist;
      sl_p50 = pct 0.50;
      sl_p99 = pct 0.99;
      sl_nsq =
        (if ss.Smt.Solver.queries = 0 then 0.0
         else elapsed *. 1e9 /. float_of_int ss.Smt.Solver.queries);
    }
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let tier_sum (ss : Smt.Solver.stats) =
    ss.Smt.Solver.trivial + ss.Smt.Solver.cache_hits + ss.Smt.Solver.cex_hits
    + ss.Smt.Solver.sat_calls
  in
  let fop = function Some x -> Printf.sprintf "%.0f" x | None -> "n/a" in
  Printf.printf "%-12s %7s %6s %6s %9s %8s %8s %8s %8s %8s %10s\n" "scenario" "paths" "tests"
    "errors" "instrs" "queries" "satcall" "rewrite" "p50ns" "p99ns" "ns/query";
  let rows =
    List.map
      (fun (name, program, (paths, tests, errors)) ->
        let l = run program in
        let got = (l.sl_r.ED.paths_explored, List.length l.sl_r.ED.tests, l.sl_r.ED.errors) in
        Printf.printf "%-12s %7d %6d %6d %9d %8d %8d %8d %8s %8s %10.0f\n" name
          l.sl_r.ED.paths_explored (List.length l.sl_r.ED.tests) l.sl_r.ED.errors
          l.sl_r.ED.instructions l.sl_ss.Smt.Solver.queries l.sl_ss.Smt.Solver.sat_calls
          l.sl_rw.Smt.Simplify.rewrites (fop l.sl_p50) (fop l.sl_p99) l.sl_nsq;
        if got <> (paths, tests, errors) then begin
          let p, t, e = got in
          fail "%s: paths/tests/errors %d/%d/%d, pinned %d/%d/%d" name p t e paths tests errors
        end;
        (* reconciliation: the driver's instruction count is the executor's
           useful-work counter, every query landed in exactly one tier, and
           every query closed exactly one wall-clock span *)
        if l.sl_r.ED.instructions <> l.sl_cfg.Engine.Executor.stats.Engine.Executor.useful_instrs
        then
          fail "%s: driver instructions %d <> executor useful %d" name l.sl_r.ED.instructions
            l.sl_cfg.Engine.Executor.stats.Engine.Executor.useful_instrs;
        if tier_sum l.sl_ss <> l.sl_ss.Smt.Solver.queries then
          fail "%s: solver tiers %d <> queries %d" name (tier_sum l.sl_ss)
            l.sl_ss.Smt.Solver.queries;
        if l.sl_spans <> l.sl_ss.Smt.Solver.queries then
          fail "%s: solver_query spans %d <> queries %d" name l.sl_spans
            l.sl_ss.Smt.Solver.queries;
        if l.sl_inc.Smt.Solver.group_hits = 0 && l.sl_ss.Smt.Solver.sat_calls > 1 then
          fail "%s: no clause-group reuse on the persistent instance" name;
        (name, l))
      scenarios
  in
  List.iter
    (fun (name, (l : solver_run)) ->
      Printf.printf "%s: %d group hits / %d misses, %d retirements\n" name
        l.sl_inc.Smt.Solver.group_hits l.sl_inc.Smt.Solver.group_misses
        l.sl_inc.Smt.Solver.retirements;
      match l.sl_sat with
      | Some st ->
        Printf.printf "  live instance: %d conflicts, %d decisions, %d propagations, %d learned\n"
          st.Smt.Sat.conflicts st.Smt.Sat.decisions st.Smt.Sat.propagations st.Smt.Sat.learned
      | None -> ())
    rows;
  let oc = open_out "BENCH_solver.json" in
  Printf.fprintf oc "{ \"scenarios\": [";
  let jop = function Some x -> Printf.sprintf "%.0f" x | None -> "null" in
  List.iteri
    (fun i (name, (l : solver_run)) ->
      let learned, deleted =
        match l.sl_sat with
        | Some st -> (st.Smt.Sat.learned, st.Smt.Sat.deleted)
        | None -> (0, 0)
      in
      Printf.fprintf oc
        "%s\n  { \"name\": %S, \"paths\": %d, \"tests\": %d, \"errors\": %d, \
         \"instructions\": %d, \"queries\": %d, \"trivial\": %d, \
         \"cache_hits\": %d, \"cex_hits\": %d, \"sat_calls\": %d, \"simplify_visits\": %d, \
         \"simplify_rewrites\": %d, \"memo_hits\": %d, \"elapsed_s\": %.4f, \
         \"ns_per_query\": %.0f, \"p50_ns\": %s, \"p99_ns\": %s, \"assumption_solves\": %d, \
         \"group_hits\": %d, \"group_misses\": %d, \"retirements\": %d, \"learned\": %d, \
         \"deleted\": %d }"
        (if i = 0 then "" else ",")
        name l.sl_r.ED.paths_explored (List.length l.sl_r.ED.tests) l.sl_r.ED.errors
        l.sl_r.ED.instructions l.sl_ss.Smt.Solver.queries l.sl_ss.Smt.Solver.trivial
        l.sl_ss.Smt.Solver.cache_hits l.sl_ss.Smt.Solver.cex_hits
        l.sl_ss.Smt.Solver.sat_calls l.sl_rw.Smt.Simplify.visits l.sl_rw.Smt.Simplify.rewrites
        l.sl_rw.Smt.Simplify.memo_hits l.sl_elapsed l.sl_nsq (jop l.sl_p50) (jop l.sl_p99)
        l.sl_inc.Smt.Solver.assumption_solves l.sl_inc.Smt.Solver.group_hits
        l.sl_inc.Smt.Solver.group_misses l.sl_inc.Smt.Solver.retirements learned deleted)
    rows;
  Printf.fprintf oc " ],\n  \"ok\": %b }\n" (!failures = []);
  close_out oc;
  Printf.printf "wrote BENCH_solver.json\n";
  if !failures <> [] then begin
    List.iter (fun m -> Printf.printf "INVARIANT VIOLATION: %s\n" m) (List.rev !failures);
    exit 1
  end

(* ====================================================================== *)
(* Scaling: true-multicore wall-clock speedup (the real-time counterpart  *)
(* of Figs. 7-8, on Cluster.Parallel instead of the virtual-time driver)  *)
(* ====================================================================== *)

let bench_scaling ?(quick = false) () =
  section "Scaling"
    "Wall-clock time to exhaust a workload on 1..N real OCaml domains\n\
     (Cluster.Parallel).  Expected shape on a multicore host: ~1.6x at 2\n\
     domains, ~2.5x+ at 4.  Speedups are reported as measured; the hard\n\
     gate is count agreement: every parallel run must finish with exactly\n\
     the simulated driver's path and error totals (exit non-zero if not).";
  let host_cores = Domain.recommended_domain_count () in
  (* Wall-clock speedup means something only with a core per domain.  On
     a host with 4 or more hardware threads every run is gated, quick
     sizes included: 1.6x at 2 domains, 2.5x at 4.  On a 2-3 thread host
     only the full bench's 2-domain runs are gated, against a floor of
     0.4x that sits below the worst of 14 full runs on a shared 2-vCPU
     host (memcached 0.46-1.26x, printf 1.23-1.80x): it catches a
     runtime that collapses, not a slow one.  Its quick runs (~60 ms:
     0.57-1.31x over 20 runs there) and a host with fewer threads record
     their speedups with the gate skipped, never silently passed. *)
  let full_host = host_cores >= 4 in
  let speedup_target nd = if nd >= 4 then 2.5 else if full_host then 1.6 else 0.4 in
  let speedup_gate nd = nd > 1 && nd <= host_cores && (full_host || not quick) in
  let gate_verdict =
    if full_host then "enforced"
    else if host_cores >= 2 && not quick then "enforced_up_to_2_domains"
    else "skipped_insufficient_cores"
  in
  Printf.printf "host: %d recommended domain(s) -- speedup gate %s; count/replay gates apply\n"
    host_cores
    (if full_host then "enforced"
     else if host_cores >= 2 && not quick then
       Printf.sprintf "enforced at 2 domains (%.1fx floor)" (speedup_target 2)
     else "SKIPPED (quick sizes need >= 4 hardware threads, full sizes >= 2)");
  let domain_counts = if quick then [ 1; 2 ] else [ 1; 2; 4 ] in
  let workloads =
    if quick then
      [
        ("memcached-2pkt4", Targets.Memcached_mini.symbolic_packets ~npackets:2 ~pkt_len:4);
        ("printf-fmt4", Targets.Printf_target.program ~fmt_len:4);
      ]
    else [ ("memcached-2pkt5", Lazy.force mc2_small); ("printf-fmt5", Lazy.force printf5) ]
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let check_tiers what (ss : Smt.Solver.stats) =
    let sum =
      ss.Smt.Solver.trivial + ss.Smt.Solver.cache_hits + ss.Smt.Solver.cex_hits
      + ss.Smt.Solver.sat_calls
    in
    if sum <> ss.Smt.Solver.queries then
      fail "%s: solver tiers sum to %d but %d queries were asked" what sum ss.Smt.Solver.queries
  in
  let results =
    List.map
      (fun (name, program) ->
        (* the simulated driver is the deterministic reference *)
        let sim = cluster ~nworkers:4 ~speed:200 program in
        Printf.printf "%s: reference %d paths (%d errors)\n%!" name sim.CD.total_paths
          sim.CD.total_errors;
        Printf.printf "%8s %10s %10s %8s %10s %10s %10s\n" "domains" "time [s]" "paths" "errors"
          "transfers" "sat calls" "speedup";
        let base = ref 0.0 in
        let runs =
          List.map
            (fun ndomains ->
              let make_worker i =
                let solver = Smt.Solver.create () in
                let cfg =
                  Posix.Api.make_config ~solver ~max_steps:2_000_000
                    ~nlines:program.Cvm.Program.nlines ()
                in
                let make_root () = Posix.Api.initial_state program ~args:[] in
                Cluster.Worker.create ~id:i ~cfg ~make_root ~seed:42 ()
              in
              let cfg = Cluster.Parallel.default_config ~ndomains ~make_worker () in
              let coverable = List.length (Cvm.Program.covered_lines program) in
              let t0 = Unix.gettimeofday () in
              let r = Cluster.Parallel.run ~coverable_lines:coverable cfg in
              let t = Unix.gettimeofday () -. t0 in
              if ndomains = 1 then base := t;
              (* a sub-resolution timing cannot support a speedup claim:
                 report it as skipped instead of fabricating a neutral 1.0 *)
              let speedup = if !base > 1e-9 && t > 1e-9 then Some (!base /. t) else None in
              Printf.printf "%8d %10.3f %10d %8d %10d %10d %10s\n%!" ndomains t
                r.Cluster.Parallel.total_paths r.Cluster.Parallel.total_errors
                r.Cluster.Parallel.transfers r.Cluster.Parallel.solver_stats.Smt.Solver.sat_calls
                (match speedup with
                | Some s -> Printf.sprintf "%.2fx" s
                | None -> "skipped");
              if r.Cluster.Parallel.total_paths <> sim.CD.total_paths then
                fail "%s @ %d domains: %d paths, simulated found %d" name ndomains
                  r.Cluster.Parallel.total_paths sim.CD.total_paths;
              if r.Cluster.Parallel.total_errors <> sim.CD.total_errors then
                fail "%s @ %d domains: %d errors, simulated found %d" name ndomains
                  r.Cluster.Parallel.total_errors sim.CD.total_errors;
              check_tiers (Printf.sprintf "%s @ %d domains" name ndomains)
                r.Cluster.Parallel.solver_stats;
              if r.Cluster.Parallel.jobs_sent <> r.Cluster.Parallel.jobs_received then
                fail "%s @ %d domains: %d jobs sent but %d received" name ndomains
                  r.Cluster.Parallel.jobs_sent r.Cluster.Parallel.jobs_received;
              (* replay-overhead gate (wall-clock independent, so it holds
                 on any host): prefix handoff must keep job reconstruction
                 under 10% of useful work wherever stealing happens *)
              if
                ndomains > 1
                && r.Cluster.Parallel.useful_instrs > 0
                && float_of_int r.Cluster.Parallel.replay_instrs
                   > 0.10 *. float_of_int r.Cluster.Parallel.useful_instrs
              then
                fail "%s @ %d domains: replay %d instrs > 10%% of useful %d" name ndomains
                  r.Cluster.Parallel.replay_instrs r.Cluster.Parallel.useful_instrs;
              (* speedup gate: enforced only with a core per domain; an
                 unmeasurable timing fails rather than fake-passing *)
              if speedup_gate ndomains then begin
                let target = speedup_target ndomains in
                match speedup with
                | Some s when s >= target -> ()
                | Some s ->
                  fail "%s @ %d domains: speedup %.2f below target %.1f" name ndomains s target
                | None ->
                  fail "%s @ %d domains: speedup unmeasurable (timing below resolution)" name
                    ndomains
              end;
              (ndomains, t, speedup, r))
            domain_counts
        in
        (name, sim, runs))
      workloads
  in
  let oc = open_out "BENCH_scaling.json" in
  Printf.fprintf oc "{ \"bench\": \"scaling\", \"host_cores\": %d, \"quick\": %b,\n" host_cores
    quick;
  Printf.fprintf oc "  \"speedup_target_2\": %.1f, \"speedup_target_4\": %.1f,\n"
    (speedup_target 2) (speedup_target 4);
  Printf.fprintf oc "  \"speedup_gate\": %S, \"replay_gate\": \"enforced_10pct\",\n"
    gate_verdict;
  Printf.fprintf oc "  \"workloads\": [";
  List.iteri
    (fun i (name, sim, runs) ->
      Printf.fprintf oc "%s\n  { \"name\": %S, \"simulated_paths\": %d, \"simulated_errors\": %d,\n"
        (if i = 0 then "" else ",")
        name sim.CD.total_paths sim.CD.total_errors;
      Printf.fprintf oc "    \"runs\": [";
      List.iteri
        (fun j (nd, t, speedup, (r : Cluster.Parallel.result)) ->
          Printf.fprintf oc
            "%s\n    { \"ndomains\": %d, \"seconds\": %.4f, \"speedup\": %s, \
             \"speedup_verdict\": %S, \"paths\": %d, \
             \"errors\": %d, \"transfers\": %d, \"steals\": %d, \"useful_instrs\": %d, \
             \"replay_instrs\": %d, \"queries\": %d, \"sat_calls\": %d }"
            (if j = 0 then "" else ",")
            nd t
            (match speedup with Some s -> Printf.sprintf "%.3f" s | None -> "null")
            (match speedup with Some _ -> "measured" | None -> "skipped_unmeasurable")
            r.Cluster.Parallel.total_paths r.Cluster.Parallel.total_errors
            r.Cluster.Parallel.transfers r.Cluster.Parallel.steals
            r.Cluster.Parallel.useful_instrs r.Cluster.Parallel.replay_instrs
            r.Cluster.Parallel.solver_stats.Smt.Solver.queries
            r.Cluster.Parallel.solver_stats.Smt.Solver.sat_calls)
        runs;
      Printf.fprintf oc " ] }")
    results;
  Printf.fprintf oc " ],\n  \"ok\": %b }\n" (!failures = []);
  close_out oc;
  Printf.printf "wrote BENCH_scaling.json\n";
  if !failures <> [] then begin
    List.iter (fun m -> Printf.printf "GATE FAILURE: %s\n" m) (List.rev !failures);
    exit 1
  end

(* ====================================================================== *)
(* Faults on real domains: the differential gate for the fault-tolerant  *)
(* multicore runtime -- crashes, rejoins and message loss on real        *)
(* Domain.t's must not change a single path or error count               *)
(* ====================================================================== *)

let bench_faults_parallel ?(quick = false) () =
  section "Fault tolerance on real domains"
    "Faulty Cluster.Parallel runs (real OCaml domains) against the fault-free\n\
     simulated reference: one scenario crashes a domain permanently, one\n\
     crashes and rejoins it, both with seeded message loss on the leased job\n\
     wire.  Hard gate: every faulty run must terminate (no watchdog) with\n\
     exactly the reference path and error totals (exit non-zero if not).";
  let module CP = Cluster.Parallel in
  let wname, program =
    if quick then ("printf-fmt4", Targets.Printf_target.program ~fmt_len:4)
    else ("memcached-2pkt4", Targets.Memcached_mini.symbolic_packets ~npackets:2 ~pkt_len:4)
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  (* the deterministic virtual-time driver is the fault-free reference *)
  let sim = cluster ~nworkers:4 ~speed:200 program in
  Printf.printf "%s: fault-free simulated reference %d paths (%d errors)\n%!" wname
    sim.CD.total_paths sim.CD.total_errors;
  let ndomains = 3 in
  let coverable = List.length (Cvm.Program.covered_lines program) in
  let make_worker i =
    let solver = Smt.Solver.create () in
    let cfg =
      Posix.Api.make_config ~solver ~max_steps:2_000_000 ~nlines:program.Cvm.Program.nlines ()
    in
    let make_root () = Posix.Api.initial_state program ~args:[] in
    Cluster.Worker.create ~id:i ~cfg ~make_root ~seed:42 ()
  in
  let run_timed plan =
    let cfg = CP.default_config ~faults:plan ~ndomains ~make_worker () in
    let t0 = Unix.gettimeofday () in
    let r = CP.run ~coverable_lines:coverable cfg in
    (r, Unix.gettimeofday () -. t0, cfg.CP.tick_period)
  in
  let run_faulty name plan ~min_crashes =
    let r, t, _ = run_timed plan in
    Printf.printf
      "%-16s %6.2fs  paths=%5d errors=%3d crashes=%d recovered=%4d retransmits=%3d \
       recovery-replay=%d\n\
       %!"
      name t r.CP.total_paths r.CP.total_errors r.CP.crashes r.CP.recovered_jobs
      r.CP.retransmits r.CP.recovery_replay_instrs;
    if r.CP.total_paths <> sim.CD.total_paths then
      fail "%s: %d paths, the fault-free reference found %d" name r.CP.total_paths
        sim.CD.total_paths;
    if r.CP.total_errors <> sim.CD.total_errors then
      fail "%s: %d errors, the fault-free reference found %d" name r.CP.total_errors
        sim.CD.total_errors;
    if r.CP.crashes < min_crashes then
      fail "%s: only %d crash(es) happened, the plan scheduled %d (run over before the tick?)"
        name r.CP.crashes min_crashes;
    (name, t, r)
  in
  (* Crash a third of the way into a fault-free run, timed here in
     coordinator ticks: early enough to always fire however fast the
     host and the solver are, late enough that the victim usually holds
     stolen work to orphan. *)
  let free, free_s, tick_period = run_timed Cluster.Faultplan.none in
  let t1 = max 2 (int_of_float (free_s /. tick_period) / 3) in
  Printf.printf "fault-free run %.3fs: crash at tick %d\n%!" free_s t1;
  if free.CP.total_paths <> sim.CD.total_paths || free.CP.total_errors <> sim.CD.total_errors then
    fail "fault-free: %d paths (%d errors), the simulated reference found %d (%d)"
      free.CP.total_paths free.CP.total_errors sim.CD.total_paths sim.CD.total_errors;
  (* The quick run is ~0.1 s of printf fmt4, whose tree a single worker
     explores almost alone: only worker 0, which holds the root lease,
     reliably has work to lose that early, so the quick gate crashes it. *)
  let victim full = if quick then 0 else full in
  let scenarios =
    [
      ( "crash-no-rejoin",
        Cluster.Faultplan.create
          ~crashes:[ Cluster.Faultplan.crash (victim 1) ~at_tick:t1 ]
          ~drop_prob:0.1 ~seed:11 (),
        1 );
      ( "crash-rejoin",
        Cluster.Faultplan.create
          ~crashes:[ Cluster.Faultplan.crash (victim 2) ~at_tick:(t1 / 2) ~rejoin_after:40 ]
          ~drop_prob:0.05 ~seed:13 (),
        1 );
    ]
  in
  let rows = List.map (fun (nm, plan, mc) -> run_faulty nm plan ~min_crashes:mc) scenarios in
  (* exactness of a crash that orphans nothing proves nothing: some
     scenario must have re-seeded a lost job *)
  if List.for_all (fun (_, _, r) -> r.CP.recovered_jobs = 0) rows then
    fail "no scenario recovered a job: every crash hit a worker without work";
  Printf.printf "result exactness: %s\n" (if !failures = [] then "EXACT" else "MISMATCH");
  let oc = open_out "BENCH_faults_parallel.json" in
  Printf.fprintf oc
    "{ \"bench\": \"faults-parallel\", \"quick\": %b, \"workload\": %S, \"ndomains\": %d,\n\
    \  \"reference\": { \"paths\": %d, \"errors\": %d },\n\
    \  \"fault_free_seconds\": %.4f, \"crash_tick\": %d,\n\
    \  \"scenarios\": ["
    quick wname ndomains sim.CD.total_paths sim.CD.total_errors free_s t1;
  List.iteri
    (fun i (name, t, (r : CP.result)) ->
      Printf.fprintf oc
        "%s\n\
        \  { \"name\": %S, \"seconds\": %.4f, \"paths\": %d, \"errors\": %d, \"crashes\": %d,\n\
        \    \"recovered_jobs\": %d, \"retransmits\": %d, \"recovery_replay_instrs\": %d,\n\
        \    \"transfers\": %d, \"steals\": %d }"
        (if i = 0 then "" else ",")
        name t r.CP.total_paths r.CP.total_errors r.CP.crashes r.CP.recovered_jobs
        r.CP.retransmits r.CP.recovery_replay_instrs r.CP.transfers r.CP.steals)
    rows;
  Printf.fprintf oc " ],\n  \"ok\": %b }\n" (!failures = []);
  close_out oc;
  Printf.printf "wrote BENCH_faults_parallel.json\n";
  if !failures <> [] then begin
    List.iter (fun m -> Printf.printf "FAULT GATE: %s\n" m) (List.rev !failures);
    exit 1
  end

(* ====================================================================== *)
(* Profile: wall-clock profiling of the multicore runtime -- latency     *)
(* percentiles, shard-lock contention, and the A/B overhead gate         *)
(* ====================================================================== *)

let bench_profile () =
  section "Profile"
    "Wall-clock profile of a 4-domain Cluster.Parallel run on the\n\
     scaling-quick workload: p50/p90/p99 latencies for mailbox waits,\n\
     steal round-trips and solver queries, hashcons shard-lock\n\
     contention, and an A/B gate -- the profiled run must cost < 5%\n\
     extra wall clock over the unprofiled one (exit non-zero when the\n\
     budget is blown or an expected span family came out empty).";
  let wname = "memcached-2pkt4" in
  let program = Targets.Memcached_mini.symbolic_packets ~npackets:2 ~pkt_len:4 in
  let tgt = C.target wname program in
  let ndomains = 4 in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let timed ?obs ?(nd = ndomains) () =
    let t0 = Unix.gettimeofday () in
    let r = C.run_parallel ?obs ~ndomains:nd tgt in
    (Unix.gettimeofday () -. t0, r)
  in
  (* snapshot helpers ----------------------------------------------------- *)
  let hist samples ~kind ?tier () =
    let labels =
      ("kind", kind) :: (match tier with Some t -> [ ("tier", t) ] | None -> [])
    in
    match Obs.Metrics.find samples "latency_ns" labels with
    | Some { Obs.Metrics.s_value = Obs.Metrics.Vhistogram _ as v; _ } -> Some v
    | _ -> None
  in
  (* one solver_query histogram summed over the answer tiers (they all
     share latency_ns_buckets, so counts line up index-for-index) *)
  let solver_hist samples =
    let parts =
      List.filter_map
        (fun (s : Obs.Metrics.sample) ->
          if
            s.Obs.Metrics.s_name = "latency_ns"
            && List.assoc_opt "kind" s.Obs.Metrics.s_labels = Some "solver_query"
          then Some s.Obs.Metrics.s_value
          else None)
        samples
    in
    let n = Array.length Obs.Metrics.latency_ns_buckets + 1 in
    let counts = Array.make n 0 in
    let sum = ref 0.0 in
    let total = ref 0 in
    List.iter
      (function
        | Obs.Metrics.Vhistogram h when Array.length h.vcounts = n ->
          Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) h.vcounts;
          sum := !sum +. h.vsum;
          total := !total + h.vcount
        | _ -> ())
      parts;
    if !total = 0 then None
    else
      Some
        (Obs.Metrics.Vhistogram
           {
             vbounds = Array.copy Obs.Metrics.latency_ns_buckets;
             vcounts = counts;
             vsum = !sum;
             vcount = !total;
           })
  in
  let hcount = function Some (Obs.Metrics.Vhistogram h) -> h.vcount | _ -> 0 in
  let hsum = function Some (Obs.Metrics.Vhistogram h) -> h.vsum | _ -> 0.0 in
  let pct v q = match v with None -> None | Some v -> Obs.Metrics.percentile v q in
  let js = function Some x -> Printf.sprintf "%.0f" x | None -> "null" in
  (* --- part A: the profiled artifact run -------------------------------- *)
  ignore (timed ());
  (* warm-up: hashcons table, allocator, code paths.  Steal traffic is
     scheduling-dependent; on the rare run where no steal lands, retry so
     the artifact always carries all three span families the gate names. *)
  let rec profiled attempt =
    let sink = Obs.Sink.create () in
    let t, r = timed ~obs:sink () in
    let samples = Obs.Sink.metrics_samples sink in
    let locks = Smt.Expr.lock_stats () in
    let complete =
      hcount (hist samples ~kind:"mailbox_wait" ()) > 0
      && hcount (hist samples ~kind:"steal_rtt" ()) > 0
      && hcount (solver_hist samples) > 0
    in
    if complete || attempt >= 3 then (sink, t, r, samples, locks)
    else profiled (attempt + 1)
  in
  let sink, t_prof, r, samples, locks = profiled 1 in
  Printf.printf "profiled run: %.3f s, %d paths (%d errors), %d steals\n\n" t_prof
    r.Cluster.Parallel.total_paths r.Cluster.Parallel.total_errors r.Cluster.Parallel.steals;
  print_string (Obs.Report.render_profile_string samples);
  let mailbox = hist samples ~kind:"mailbox_wait" () in
  let steal = hist samples ~kind:"steal_rtt" () in
  let replay = hist samples ~kind:"job_replay" () in
  let quiesce = hist samples ~kind:"quiesce_round" () in
  let solver = solver_hist samples in
  if hcount mailbox = 0 then fail "no mailbox_wait spans were recorded";
  if hcount steal = 0 then fail "no steal_rtt spans were recorded";
  if hcount solver = 0 then fail "no solver_query spans were recorded";
  (* reconciliation: every answered query closes exactly one span *)
  let queries = r.Cluster.Parallel.solver_stats.Smt.Solver.queries in
  if hcount solver <> queries then
    fail "solver_query spans (%d) do not reconcile with solver queries (%d)" (hcount solver)
      queries;
  let acquisitions (ls : Smt.Shard_lock.stats) =
    ls.Smt.Shard_lock.lk_uncontended + ls.Smt.Shard_lock.lk_contended
  in
  if acquisitions locks = 0 then fail "the hashcons shard-lock probe recorded no acquisitions";
  let store_locks = r.Cluster.Parallel.store_locks in
  if acquisitions store_locks = 0 then
    fail "the answer store's shard-lock probe recorded no acquisitions";
  (* --- part B: A/B overhead gate ----------------------------------------- *)
  (* At 4 domains this small workload is imbalance-bound: wall time is
     dominated by which steal schedule the run happens to draw, so an
     A/B difference there measures scheduling luck, not the profiler.
     The gate legs therefore run on a single domain, where the schedule
     is deterministic and the on/off ratio isolates the profiler's own
     per-event cost -- which is what the budget bounds, and which is the
     same at any domain count (the mailbox/steal wait probes only fire
     while a worker is blocked anyway, i.e. on time that was already
     lost).  Even then a shared host adds +-15% run-to-run noise, so the
     gate takes [trials] interleaved samples per side and the verdict
     uses the *smaller* of two robust estimators, min-of-N ratio and
     median ratio: noise inflates each independently (a descheduled run
     lands in one statistic or the other), while a genuine regression
     above the budget inflates both. *)
  let trials = 16 in
  let budget_pct = 5.0 in
  Printf.printf "\nA/B overhead gate (single-domain legs, %d interleaved samples per side):\n"
    trials;
  let ab =
    ab_overhead ~budget_pct ~trials
      ~leg:(fun ~on -> timed ?obs:(if on then Some (Obs.Sink.create ()) else None) ~nd:1 ())
      ~same:(fun i r_off r_on ->
        if r_on.Cluster.Parallel.total_paths <> r_off.Cluster.Parallel.total_paths then
          fail "sample %d: profiled run found %d paths, unprofiled %d" i
            r_on.Cluster.Parallel.total_paths r_off.Cluster.Parallel.total_paths)
      ()
  in
  let overhead_pct = ab.overhead_pct in
  if overhead_pct > budget_pct then
    fail "profiling overhead %.2f%% exceeds the %.1f%% budget" overhead_pct budget_pct;
  (* --- artifacts ---------------------------------------------------------- *)
  let emit_hist oc key v last =
    let mean =
      if hcount v = 0 then "null" else Printf.sprintf "%.0f" (hsum v /. float_of_int (hcount v))
    in
    Printf.fprintf oc
      "    %S: { \"count\": %d, \"p50_ns\": %s, \"p90_ns\": %s, \"p99_ns\": %s, \"mean_ns\": %s \
       }%s\n"
      key (hcount v) (js (pct v 0.5)) (js (pct v 0.9)) (js (pct v 0.99)) mean
      (if last then "" else ",")
  in
  let oc = open_out "BENCH_profile.json" in
  Printf.fprintf oc "{ \"bench\": \"profile\", \"workload\": %S, \"ndomains\": %d,\n" wname
    ndomains;
  Printf.fprintf oc "  \"paths\": %d, \"errors\": %d, \"steals\": %d, \"solver_queries\": %d,\n"
    r.Cluster.Parallel.total_paths r.Cluster.Parallel.total_errors r.Cluster.Parallel.steals
    queries;
  Printf.fprintf oc "  \"latency_ns\": {\n";
  emit_hist oc "mailbox_wait" mailbox false;
  emit_hist oc "steal_rtt" steal false;
  emit_hist oc "solver_query" solver false;
  emit_hist oc "job_replay" replay false;
  emit_hist oc "quiesce_round" quiesce true;
  Printf.fprintf oc "  },\n";
  let emit_locks key (ls : Smt.Shard_lock.stats) =
    let contended = ls.Smt.Shard_lock.lk_contended in
    let contention =
      if acquisitions ls = 0 then 0.0
      else float_of_int contended /. float_of_int (acquisitions ls)
    in
    Printf.fprintf oc
      "  %S: { \"uncontended\": %d, \"contended\": %d, \"contention_ratio\": %.6f,\n" key
      ls.Smt.Shard_lock.lk_uncontended contended contention;
    Printf.fprintf oc "    \"top_shards\": [";
    List.iteri
      (fun i (shard, c) ->
        Printf.fprintf oc "%s{ \"shard\": %d, \"contended\": %d }"
          (if i = 0 then "" else ", ")
          shard c)
      ls.Smt.Shard_lock.lk_top_shards;
    Printf.fprintf oc "] },\n"
  in
  emit_locks "hashcons_locks" locks;
  emit_locks "answer_store_locks" store_locks;
  Printf.fprintf oc
    "  \"overhead\": { \"samples_per_side\": %d, \"min_off_s\": %.4f, \"min_on_s\": %.4f, \
     \"median_off_s\": %.4f, \"median_on_s\": %.4f, \"overhead_pct\": %.3f, \"budget_pct\": \
     %.1f },\n"
    trials ab.min_off ab.min_on ab.median_off ab.median_on overhead_pct budget_pct;
  Printf.fprintf oc "  \"ok\": %b }\n" (!failures = []);
  close_out oc;
  Printf.printf "wrote BENCH_profile.json\n";
  write_obs_artifacts sink ~trace:"BENCH_profile_trace.json"
    ~metrics:"BENCH_profile_metrics.jsonl";
  if !failures <> [] then begin
    List.iter (fun m -> Printf.printf "PROFILE GATE: %s\n" m) (List.rev !failures);
    exit 1
  end

(* ====================================================================== *)
(* Campaign service: checkpoint / kill / restore exactness + fairness      *)
(* ====================================================================== *)

(* The campaign-service gate (lib/service).  A multi-tenant population of
   coreutils campaigns runs under the daemon's round-robin scheduler; the
   daemon is killed mid-campaign (dropped on the floor, last checkpoint on
   disk), restored from its snapshot, and driven to completion.  Hard
   gates, each exiting non-zero on breach:
     - every restored campaign reaches the EXACT fault-free path and
       error totals of an uninterrupted [run_cluster] on the same target
       and options (the restore≡uninterrupted argument of DESIGN.md);
     - strict round-robin fairness: between two slices granted to a
       campaign, every other runnable campaign is granted at most once
       (starvation bound K-1);
     - restore latency (snapshot load + daemon reconstruction) is
       recorded in BENCH_service.json. *)
let bench_service ?(quick = false) () =
  let module SC = Service.Campaign in
  let module SD = Service.Daemon in
  section "service"
    "Multi-tenant campaign daemon: checkpoint mid-campaign, kill, restore from\n\
     the snapshot, finish.  Expected: every campaign reaches the exact paths and\n\
     errors of its uninterrupted run, no tenant waits more than K-1 slices, and\n\
     restore latency stays in the milliseconds.";
  let tenants =
    (* even-seeded utilities exhaust quickly; odd ones are the deep half
       of the suite and belong to the overnight sweep (EXPERIMENTS.md) *)
    if quick then [ "cu04"; "cu20"; "cu74" ]
    else [ "cu02"; "cu04"; "cu14"; "cu18"; "cu20"; "cu74" ]
  in
  let k = List.length tenants in
  let slice_instrs = 1000 in
  let options =
    {
      C.default_cluster_options with
      C.nworkers = 4;
      speed = 80;
      cworker_max_steps = Some 2000;
    }
  in
  let resolve v =
    match Core.Registry.resolve ~name:"coreutils" ~variant:(Some v) with
    | Some t -> t
    | None -> failwith ("unknown coreutils variant " ^ v)
  in
  (* reference: uninterrupted runs, same options the daemon slices use *)
  let direct =
    List.map
      (fun v ->
        let r = C.run_cluster ~options (resolve v) in
        Printf.printf "direct   %-6s paths=%5d errors=%3d useful=%7d\n%!" v
          r.CD.total_paths r.CD.total_errors r.CD.useful_instrs;
        (v, r))
      tenants
  in
  let state = Filename.temp_file "bench_service_state" ".json" in
  Sys.remove state;
  let cfg =
    {
      (SD.default_config ~state_file:state) with
      SD.slice_instrs;
      checkpoint_every = 1; (* every slice lands a checkpoint: kill anywhere *)
    }
  in
  let spec v =
    {
      SC.sp_name = v;
      sp_target = "coreutils";
      sp_variant = Some v;
      sp_runtime = SC.Sim;
      sp_workers = 4;
      sp_speed = 80;
      sp_max_steps = 2000;
      sp_seed = 42;
      sp_slice_instrs = None;
    }
  in
  let failures = ref [] in
  let gate cond msg = if not cond then failures := msg :: !failures in
  (* grants: (campaign, runnable tenant count when granted), oldest first *)
  let grants = ref [] in
  let step_once d =
    let runnable =
      List.length (List.filter (fun c -> SC.runnable c) (SD.campaigns d))
    in
    match SD.step d with
    | `Sliced name ->
      grants := (name, runnable) :: !grants;
      true
    | `Idle | `Stopped -> false
  in
  (* phase 1: all tenants admitted, killed after 3 rounds of slices *)
  let d1 = match SD.create cfg with Ok d -> d | Error m -> failwith m in
  List.iter (fun v -> SD.submit d1 (spec v)) tenants;
  for _ = 1 to 3 * k do
    ignore (step_once d1)
  done;
  let mid_running =
    List.exists (fun c -> c.SC.status = SC.Running) (SD.campaigns d1)
  in
  gate mid_running "daemon killed after the campaigns already finished; nothing was restored";
  (* the "kill": d1 is dropped with only its checkpoint surviving *)
  let t0 = Unix.gettimeofday () in
  let d2 = match SD.create cfg with Ok d -> d | Error m -> failwith m in
  let restore_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
  let rec drive n = if n > 100_000 then failwith "service bench did not converge"
    else if step_once d2 then drive (n + 1) in
  drive 0;
  (* gate 1: exact totals per tenant *)
  List.iter
    (fun (v, (dr : CD.result)) ->
      match SD.find d2 v with
      | None -> gate false (v ^ ": campaign lost across restore")
      | Some c ->
        Printf.printf "restored %-6s paths=%5d errors=%3d slices=%3d status=%s\n%!" v
          c.SC.paths c.SC.errors c.SC.slices (SC.status_to_string c.SC.status);
        gate (c.SC.status = SC.Done) (v ^ ": campaign did not finish");
        gate
          (c.SC.paths = dr.CD.total_paths && c.SC.errors = dr.CD.total_errors)
          (Printf.sprintf "%s: restored totals %d/%d != uninterrupted %d/%d" v c.SC.paths
             c.SC.errors dr.CD.total_paths dr.CD.total_errors))
    direct;
  (* gate 2: starvation bound.  For consecutive grants to one tenant, the
     number of intervening grants is at most (max runnable over the
     window) - 1 under strict round-robin. *)
  let grants = List.rev !grants in
  let max_gap = ref 0 in
  let bound_ok = ref true in
  List.iter
    (fun v ->
      let positions =
        List.filteri (fun _ _ -> true) grants
        |> List.mapi (fun i (n, k) -> (i, n, k))
        |> List.filter (fun (_, n, _) -> n = v)
      in
      let rec pairs = function
        | (i1, _, _) :: ((i2, _, _) :: _ as rest) ->
          let window = List.filteri (fun i _ -> i > i1 && i <= i2) grants in
          let kmax = List.fold_left (fun acc (_, k) -> max acc k) 1 window in
          let gap = i2 - i1 - 1 in
          max_gap := max !max_gap gap;
          if gap > kmax - 1 then bound_ok := false;
          pairs rest
        | _ -> ()
      in
      pairs positions)
    tenants;
  gate !bound_ok "starvation bound K-1 violated";
  Printf.printf "fairness: %d grants, max inter-grant gap %d (bound %d)\n%!"
    (List.length grants) !max_gap (k - 1);
  Printf.printf "restore latency: %.2f ms\n%!" restore_ms;
  (* artifact *)
  let module J = Obs.Json in
  let ok = !failures = [] in
  let row (v, (dr : CD.result)) =
    let c = SD.find d2 v in
    J.Obj
      [
        ("tenant", J.Str v);
        ("direct_paths", J.Num (float_of_int dr.CD.total_paths));
        ("direct_errors", J.Num (float_of_int dr.CD.total_errors));
        ( "restored_paths",
          J.Num (float_of_int (match c with Some c -> c.SC.paths | None -> -1)) );
        ( "restored_errors",
          J.Num (float_of_int (match c with Some c -> c.SC.errors | None -> -1)) );
        ( "slices",
          J.Num (float_of_int (match c with Some c -> c.SC.slices | None -> 0)) );
      ]
  in
  let doc =
    J.Obj
      [
        ("bench", J.Str "service");
        ("quick", J.Bool quick);
        ("tenants", J.Num (float_of_int k));
        ("slice_instrs", J.Num (float_of_int slice_instrs));
        ("campaigns", J.Arr (List.map row direct));
        ("grants", J.Num (float_of_int (List.length grants)));
        ("max_gap", J.Num (float_of_int !max_gap));
        ("starvation_bound", J.Num (float_of_int (k - 1)));
        ("restore_ms", J.Num restore_ms);
        ("ok", J.Bool ok);
      ]
  in
  let oc = open_out "BENCH_service.json" in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_service.json\n";
  if Sys.file_exists state then Sys.remove state;
  if not ok then begin
    List.iter (fun m -> Printf.printf "SERVICE GATE: %s\n" m) (List.rev !failures);
    exit 1
  end

(* ====================================================================== *)
(* Telemetry plane: overhead, stall detection, surface agreement, diff    *)
(* ====================================================================== *)

(* The telemetry-plane gate (lib/obs/progress + lib/service/telemetry +
   `cloud9 top` + `report --diff`).  Four hard gates, each exiting
   non-zero on breach:
     - A/B overhead: a telemetry-enabled daemon (status + Prometheus
       files on a 1-slice cadence) vs the same daemon with the plane off
       stays under the 5% budget, with the same dual min/median
       estimator the profile gate uses;
     - stall detection: a campaign whose frontier is fully banned and
       whose coverage vector is saturated gains nothing per slice and
       must be flipped to `stalled` within K coverage-dry slices;
     - surface agreement: the status file's aggregate totals equal both
       the event stream's final per-campaign summaries and the daemon's
       in-memory counters, exactly;
     - regression checking: `report --diff` (library and CLI) accepts
       identical artifacts and rejects a seeded synthetic regression. *)
let bench_telemetry ?(quick = false) () =
  let module SC = Service.Campaign in
  let module SD = Service.Daemon in
  let module ST = Service.Telemetry in
  let module J = Obs.Json in
  section "telemetry"
    "Campaign telemetry plane: the enabled-vs-disabled overhead budget, stalled-\n\
     campaign detection within K dry slices, exact agreement between the status\n\
     file, the event stream and the in-memory counters, and the report --diff\n\
     regression checker on identical vs seeded-regression artifacts.";
  let failures = ref [] in
  let gate cond msg = if not cond then failures := msg :: !failures in
  let tenants = if quick then [ "cu04"; "cu20" ] else [ "cu04"; "cu20"; "cu74" ] in
  let spec v =
    {
      SC.sp_name = v;
      sp_target = "coreutils";
      sp_variant = Some v;
      sp_runtime = SC.Sim;
      sp_workers = 4;
      sp_speed = 80;
      sp_max_steps = 2000;
      sp_seed = 42;
      sp_slice_instrs = None;
    }
  in
  let tmp suffix =
    let f = Filename.temp_file "bench_telemetry" suffix in
    Sys.remove f;
    f
  in
  let rm f = if Sys.file_exists f then Sys.remove f in
  (* one daemon leg: submit the tenants, drive to completion in batch
     mode, return (seconds, daemon) *)
  let leg ~telemetry ~events_file () =
    let state = tmp ".state.json" in
    let cfg =
      {
        (SD.default_config ~state_file:state) with
        SD.slice_instrs = 1000;
        events_file;
        obs = Some (Obs.Sink.create ());
        telemetry;
      }
    in
    let d = match SD.create cfg with Ok d -> d | Error m -> failwith m in
    List.iter (fun v -> SD.submit d (spec v)) tenants;
    let t0 = Unix.gettimeofday () in
    (* batch mode: drives to idle, then checkpoints and flushes the
       final status document — the same path a production daemon takes *)
    SD.run ~idle_exit:true d;
    let dt = Unix.gettimeofday () -. t0 in
    rm state;
    (dt, d)
  in
  (* --- part A: A/B overhead gate --------------------------------------- *)
  (* The shared [ab_overhead] estimator.  The legs run heavyweight
     tenants for a fixed slice count at a realistic slice budget: the
     flush cost amortizes over real slice work instead of dominating a
     degenerate few-millisecond run. *)
  let trials = if quick then 4 else 8 in
  let budget_pct = 5.0 in
  let ov_tenants = if quick then [ "cu11"; "cu19" ] else [ "cu11"; "cu19"; "cu47" ] in
  let ov_slices = if quick then 16 else 36 in
  let ov_slice_instrs = 5000 in
  let status_file = tmp ".status.json" in
  let prom_file = tmp ".prom.txt" in
  (* default cadence: the gate measures the configuration a production
     daemon runs with, not a pathological every-slice rewrite *)
  let tele_cfg =
    Some
      { ST.default_config with ST.status_file = Some status_file; prom_file = Some prom_file }
  in
  let paths_of d = List.fold_left (fun acc c -> acc + c.SC.paths) 0 (SD.campaigns d) in
  let ov_leg ~on =
    let telemetry = if on then tele_cfg else None in
    let state = tmp ".ov-state.json" in
    let cfg =
      {
        (SD.default_config ~state_file:state) with
        SD.slice_instrs = ov_slice_instrs;
        obs = Some (Obs.Sink.create ());
        telemetry;
      }
    in
    let d = match SD.create cfg with Ok d -> d | Error m -> failwith m in
    List.iter (fun v -> SD.submit d (spec v)) ov_tenants;
    (* settle the heap so GC debt from the previous leg doesn't land here *)
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let rec go n =
      if n < ov_slices then match SD.step d with `Sliced _ -> go (n + 1) | `Idle | `Stopped -> ()
    in
    go 0;
    let dt = Unix.gettimeofday () -. t0 in
    rm state;
    (dt, d)
  in
  Printf.printf
    "A/B overhead gate (%d interleaved pairs, %d slices x %d instrs, %d tenants):\n%!" trials
    ov_slices ov_slice_instrs (List.length ov_tenants);
  let ab =
    ab_overhead ~budget_pct ~trials ~leg:ov_leg
      ~same:(fun i d_off d_on ->
        if paths_of d_on <> paths_of d_off then
          gate false
            (Printf.sprintf "sample %d: telemetry-enabled run found %d paths, disabled %d" i
               (paths_of d_on) (paths_of d_off)))
      ()
  in
  let overhead_pct = ab.overhead_pct in
  gate
    (overhead_pct <= budget_pct)
    (Printf.sprintf "telemetry overhead %.2f%% exceeds the %.1f%% budget" overhead_pct
       budget_pct);
  (* --- part B: stall detection ------------------------------------------ *)
  (* A deep campaign is advanced a few slices, then wedged: its frontier
     is fully banned and its coverage vector saturated, so every further
     slice burns budget without any coverage gain.  The health machine
     must flip it to `stalled` within K dry slices.  (Bans are exact-path
     and fire on fork products, so the wedged campaign keeps exploring —
     the stall is a *progress* stall, exactly what the estimator sees.) *)
  let stall_k = ST.default_config.ST.stall_slices in
  let stall_tenant = "cu14" in
  let stall_status = tmp ".stall-status.json" in
  let stall_events = tmp ".stall-events.jsonl" in
  let stall_state = tmp ".stall-state.json" in
  let stall_cfg =
    {
      (SD.default_config ~state_file:stall_state) with
      SD.slice_instrs = 1000;
      events_file = Some stall_events;
      telemetry =
        Some { ST.default_config with ST.status_file = Some stall_status; cadence_slices = 1 };
    }
  in
  let d = match SD.create stall_cfg with Ok d -> d | Error m -> failwith m in
  SD.submit d (spec stall_tenant);
  let step_slice () = match SD.step d with `Sliced _ -> true | `Idle | `Stopped -> false in
  for _ = 1 to 3 do
    ignore (step_slice ())
  done;
  let c =
    match SD.find d stall_tenant with Some c -> c | None -> failwith "stall tenant lost"
  in
  gate (c.SC.status = SC.Running && c.SC.frontier <> [])
    "stall scenario: campaign finished before it could be wedged";
  (* wedge it: ban the whole frontier and saturate the coverage vector
     (exactly the coverable bits, so the fraction pins at 1.0) *)
  c.SC.bans <- c.SC.frontier @ c.SC.bans;
  let saturated =
    let n = c.SC.coverable in
    let b = Engine.Coverage.create ~nlines:n in
    for i = 0 to n - 1 do
      ignore (Engine.Coverage.add b i)
    done;
    b
  in
  c.SC.coverage <- Engine.Coverage.union_into c.SC.coverage saturated;
  SC.recompute_coverage_frac c;
  (* the slice that lands the saturated fraction registers as a gain;
     dry counting starts after it *)
  ignore (step_slice ());
  let tele = match SD.telemetry d with Some t -> t | None -> failwith "telemetry off" in
  let slices_to_stalled = ref 0 in
  let rec wait n =
    if ST.health tele stall_tenant = Some ST.Stalled then slices_to_stalled := n
    else if n >= stall_k + 2 || not (step_slice ()) then slices_to_stalled := -1
    else wait (n + 1)
  in
  wait 0;
  Printf.printf "stall: tenant %s flipped to stalled after %d dry slices (bound %d)\n%!"
    stall_tenant !slices_to_stalled stall_k;
  gate
    (!slices_to_stalled >= 0 && !slices_to_stalled <= stall_k)
    (Printf.sprintf "campaign not stalled within %d dry slices" stall_k);
  gate (c.SC.status = SC.Running) "stall scenario: campaign no longer running at detection";
  (* the transition must be visible on both surfaces: a telemetry event
     on the stream and health=stalled in the status file *)
  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let stall_event_seen =
    String.split_on_char '\n' (read_file stall_events)
    |> List.exists (fun line ->
           match J.parse line with
           | Ok ev ->
             J.member "event" ev = Some (J.Str "telemetry")
             && J.member "to" ev = Some (J.Str "stalled")
             && J.member "name" ev = Some (J.Str stall_tenant)
           | Error _ -> false)
  in
  gate stall_event_seen "no telemetry event with to=stalled on the event stream";
  let status_health =
    match J.parse (String.trim (read_file stall_status)) with
    | Error e -> failwith ("status file unreadable: " ^ e)
    | Ok doc -> (
      match Option.bind (J.member "campaigns" doc) J.to_list with
      | Some (row :: _) ->
        Option.value ~default:"?" (Option.bind (J.member "health" row) J.to_str)
      | _ -> "?")
  in
  gate (status_health = "stalled")
    (Printf.sprintf "status file says health=%s, expected stalled" status_health);
  List.iter rm [ stall_status; stall_events; stall_state ];
  (* --- part C: surface agreement ---------------------------------------- *)
  (* One full telemetry-enabled run with the event stream on: the status
     file's totals, the event stream's final per-campaign summaries and
     the in-memory counters must agree exactly. *)
  let agree_events = tmp ".agree-events.jsonl" in
  let _, d = leg ~telemetry:tele_cfg ~events_file:(Some agree_events) () in
  let counter_paths = paths_of d in
  let counter_errors = List.fold_left (fun a c -> a + c.SC.errors) 0 (SD.campaigns d) in
  let counter_slices = List.fold_left (fun a c -> a + c.SC.slices) 0 (SD.campaigns d) in
  let status_doc =
    match J.parse (String.trim (read_file status_file)) with
    | Ok doc -> doc
    | Error e -> failwith ("status file unreadable: " ^ e)
  in
  let status_total field =
    match Option.bind (J.member "totals" status_doc) (fun t -> J.member field t) with
    | Some (J.Num f) -> int_of_float f
    | _ -> -1
  in
  (* event stream: the latest summary per campaign is its final state *)
  let final_summaries = Hashtbl.create 8 in
  String.split_on_char '\n' (read_file agree_events)
  |> List.iter (fun line ->
         match J.parse line with
         | Ok ev when J.member "event" ev = Some (J.Str "progress")
                      || J.member "event" ev = Some (J.Str "done") -> (
           match (J.member "name" ev, J.member "campaign" ev) with
           | Some (J.Str n), Some summary -> Hashtbl.replace final_summaries n summary
           | _ -> ())
         | _ -> ());
  let event_total field =
    Hashtbl.fold
      (fun _ summary acc ->
        match J.member field summary with Some (J.Num f) -> acc + int_of_float f | _ -> acc)
      final_summaries 0
  in
  Printf.printf
    "agreement: paths %d/%d/%d errors %d/%d/%d slices %d/%d/%d (counter/status/events)\n%!"
    counter_paths (status_total "paths") (event_total "paths") counter_errors
    (status_total "errors") (event_total "errors") counter_slices (status_total "slices")
    (event_total "slices");
  let agree field counter = status_total field = counter && event_total field = counter in
  gate (agree "paths" counter_paths) "path totals disagree across telemetry surfaces";
  gate (agree "errors" counter_errors) "error totals disagree across telemetry surfaces";
  gate (agree "slices" counter_slices) "slice totals disagree across telemetry surfaces";
  let prom_ok =
    Sys.file_exists prom_file
    && String.length (read_file prom_file) > 0
    && String.sub (read_file prom_file) 0 6 = "# TYPE"
  in
  gate prom_ok "prometheus exposition missing or malformed";
  rm agree_events;
  (* --- part D: report --diff self-test ----------------------------------- *)
  (* identical artifacts -> zero regressions and exit 0; an artifact with
     a seeded regression (a path count collapsed, a gate flipped) ->
     non-empty regressions and exit 1.  Checked at the library level and
     through the installed CLI. *)
  let artifact ~paths ~ok =
    J.Obj
      [
        ("bench", J.Str "synthetic");
        ("quick", J.Bool quick);
        ( "campaigns",
          J.Arr
            [
              J.Obj [ ("tenant", J.Str "t1"); ("paths", J.Num (float_of_int paths)) ];
              J.Obj [ ("tenant", J.Str "t2"); ("paths", J.Num 99.0) ];
            ] );
        ("ok", J.Bool ok);
      ]
  in
  let base = artifact ~paths:500 ~ok:true in
  let seeded = artifact ~paths:250 ~ok:false in
  let lib_identical = Obs.Bench_diff.ok (Obs.Bench_diff.compare base base) in
  let lib_seeded = Obs.Bench_diff.ok (Obs.Bench_diff.compare base seeded) in
  gate lib_identical "Bench_diff flags regressions on identical artifacts";
  gate (not lib_seeded) "Bench_diff misses a seeded regression";
  let cloud9 =
    List.find_opt Sys.file_exists [ "../bin/cloud9.exe"; "_build/default/bin/cloud9.exe" ]
  in
  let write_json path v =
    let oc = open_out path in
    output_string oc (J.to_string v);
    output_char oc '\n';
    close_out oc
  in
  let identical_exit, seeded_exit =
    match cloud9 with
    | None ->
      gate false "cloud9 binary not found for the report --diff CLI check";
      (-1, -1)
    | Some exe ->
      let a = tmp ".a.json" and b = tmp ".b.json" in
      write_json a base;
      write_json b seeded;
      let run args = Sys.command (Filename.quote_command exe args ^ " > /dev/null") in
      let ie = run [ "report"; "--diff"; a; a ] in
      let se = run [ "report"; "--diff"; a; b ] in
      rm a;
      rm b;
      gate (ie = 0) (Printf.sprintf "report --diff exited %d on identical artifacts" ie);
      gate (se <> 0) "report --diff exited 0 on a seeded regression";
      (ie, se)
  in
  Printf.printf "diff: identical exit %d, seeded-regression exit %d\n%!" identical_exit
    seeded_exit;
  List.iter rm [ status_file; prom_file ];
  (* --- artifact ----------------------------------------------------------- *)
  let ok = !failures = [] in
  let doc =
    J.Obj
      [
        ("bench", J.Str "telemetry");
        ("quick", J.Bool quick);
        ("tenants", J.Num (float_of_int (List.length tenants)));
        ( "overhead",
          J.Obj
            [
              ("samples_per_side", J.Num (float_of_int trials));
              ("slices_per_leg", J.Num (float_of_int ov_slices));
              ("slice_instrs", J.Num (float_of_int ov_slice_instrs));
              ("leg_tenants", J.Num (float_of_int (List.length ov_tenants)));
              ("min_off_s", J.Num ab.min_off);
              ("min_on_s", J.Num ab.min_on);
              ("median_off_s", J.Num ab.median_off);
              ("median_on_s", J.Num ab.median_on);
              ("overhead_pct", J.Num overhead_pct);
              ("budget_pct", J.Num budget_pct);
            ] );
        ( "stall",
          J.Obj
            [
              ("tenant", J.Str stall_tenant);
              ("stall_slices", J.Num (float_of_int stall_k));
              ("dry_slices_to_stalled", J.Num (float_of_int !slices_to_stalled));
              ("event_seen", J.Bool stall_event_seen);
              ("status_health", J.Str status_health);
            ] );
        ( "agreement",
          J.Obj
            [
              ("paths", J.Num (float_of_int counter_paths));
              ("errors", J.Num (float_of_int counter_errors));
              ("slices", J.Num (float_of_int counter_slices));
              ("exact", J.Bool (agree "paths" counter_paths && agree "errors" counter_errors
                                && agree "slices" counter_slices));
            ] );
        ( "diff",
          J.Obj
            [
              ("library_identical_ok", J.Bool lib_identical);
              ("library_seeded_flagged", J.Bool (not lib_seeded));
              ("identical_exit", J.Num (float_of_int identical_exit));
              ("seeded_exit", J.Num (float_of_int seeded_exit));
            ] );
        ("ok", J.Bool ok);
      ]
  in
  let oc = open_out "BENCH_telemetry.json" in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_telemetry.json\n";
  if not ok then begin
    List.iter (fun m -> Printf.printf "TELEMETRY GATE: %s\n" m) (List.rev !failures);
    exit 1
  end

(* ====================================================================== *)

let experiments =
  [
    ("table4", table4);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("t5", t5);
    ("fig12", fig12);
    ("fig13", fig13);
    ("t6", t6);
    ("ablation-encoding", ablation_encoding);
    ("ablation-allocator", ablation_allocator);
    ("ablation-caches", ablation_caches);
    ("ablation-strategies", ablation_strategies);
    ("ablation-static", ablation_static);
    ("ablation-hetero", ablation_hetero);
    ("ablation-join", ablation_join);
    ("faults", bench_faults);
    ("solver", bench_solver);
    ("scaling", fun () -> bench_scaling ());
    ("scaling-quick", fun () -> bench_scaling ~quick:true ());
    ("faults-parallel", fun () -> bench_faults_parallel ());
    ("faults-parallel-quick", fun () -> bench_faults_parallel ~quick:true ());
    ("profile", bench_profile);
    ("service", fun () -> bench_service ());
    ("service-quick", fun () -> bench_service ~quick:true ());
    ("telemetry", fun () -> bench_telemetry ());
    ("telemetry-quick", fun () -> bench_telemetry ~quick:true ());
    ("smoke", smoke);
    ("obs-overhead", obs_overhead);
    ("micro", micro);
  ]

let () =
  let requested = List.tl (Array.to_list Sys.argv) in
  let to_run =
    if requested = [] then experiments
    else
      List.map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> (name, f)
          | None ->
            Printf.eprintf "unknown experiment %s; available: %s\n" name
              (String.concat " " (List.map fst experiments));
            exit 1)
        requested
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (name, f) ->
      let t = Unix.gettimeofday () in
      f ();
      Printf.printf "[%s took %.1fs]\n%!" name (Unix.gettimeofday () -. t))
    to_run;
  line ();
  Printf.printf "benchmark suite completed in %.1fs\n" (Unix.gettimeofday () -. t0)
