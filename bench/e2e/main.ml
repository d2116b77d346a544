(* The end-to-end benchmark.

   Four workloads, each driven only through the platform's public entry
   points (Core.Cloud9.run_local, Cluster.Parallel.run, Service.Daemon),
   each run in its own process in one of two modes:

   - untraced ([run W]): one untimed warm-up pass, then timed passes (at
     least three, more while [--seconds] has not elapsed).  Every
     end-to-end metric comes from this mode, as a median over passes.
     The last pass's tests are then replayed concretely as the
     correctness oracle.
   - traced ([run W --traced]): a warm-up pass, then one traced pass,
     with timers around every call the benchmark makes into a layer,
     between two untraced reference passes.  Every per-layer number
     comes from this mode; the traced pass's wall time against the
     references' is the tracing overhead.

   Every pass must reproduce the totals pinned in [Expected]; a mismatch
   exits non-zero.  The last line of standard output is one JSON object
   with the keys "correct", "attempted", "failed" and "metrics". *)

module C = Core.Cloud9
module E = Engine
module SC = Service.Campaign
module SD = Service.Daemon
module J = Obs.Json
module M = Obs.Metrics

(* --- clocks and statistics --------------------------------------------- *)

let now_ns = Obs.Clock.now_ns
let secs ns = float_of_int ns /. 1e9

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Linear interpolation between closest ranks over sorted samples. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then sorted.(n - 1)
    else sorted.(i) +. ((pos -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let sort_floats xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs = quantile (sort_floats xs) 0.5

(* A growable flat float array, so that recording the hottest probe's
   samples does not feed the GC it is measuring. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let sorted t =
    let b = Array.sub t.a 0 t.n in
    Array.sort Float.compare b;
    b
end

(* VmHWM: this process's resident-set high-water mark, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> 0.0
      in
      go ())

(* --- workloads ------------------------------------------------------------ *)

type size = Full | Smoke

type kind =
  | Local of { program : unit -> Cvm.Program.t; collect_tests : int }
  | Par of { program : unit -> Cvm.Program.t; ndomains : int }
  | Campaign of { tenants : string list }

type workload = { name : string; kind : kind }

(* Smoke sizes keep the names: printf fmt4, memcached 2x4 (locally and on
   2 domains) and 3 tenants. *)
let workloads size =
  let fmt_len, pkt_len, tenants =
    match size with
    | Full -> (5, 6, List.init 48 (fun i -> Targets.Coreutils_gen.name (2 * i)))
    | Smoke -> (4, 4, [ "cu04"; "cu20"; "cu74" ])
  in
  let printf () = Targets.Printf_target.program ~fmt_len in
  let memcached () = Targets.Memcached_mini.symbolic_packets ~npackets:2 ~pkt_len in
  [
    { name = "printf5-local"; kind = Local { program = printf; collect_tests = max_int } };
    {
      name = "memcached2x6-local";
      kind = Local { program = memcached; collect_tests = C.default_options.C.collect_tests };
    };
    { name = "memcached2x6-par2"; kind = Par { program = memcached; ndomains = 2 } };
    { name = "coreutils48-campaign"; kind = Campaign { tenants } };
  ]

let pinned size name =
  match size with Full -> Expected.full name | Smoke -> Expected.smoke name

let pinned_tenants = function Full -> Expected.tenants_full | Smoke -> Expected.tenants_smoke

(* The campaign settings of the service gate: 1000-instruction slices,
   4 simulated workers at speed 80, a 2000-step path cap. *)
let slice_instrs = 1000

let tenant_spec ~seed v =
  {
    SC.sp_name = v;
    sp_target = "coreutils";
    sp_variant = Some v;
    sp_runtime = SC.Sim;
    sp_workers = 4;
    sp_speed = 80;
    sp_max_steps = 2000;
    sp_seed = seed;
    sp_slice_instrs = None;
  }

(* Scratch files (the campaign daemon's snapshot) live under the working
   directory, which is the root of a checkout when run from there. *)
let workdir = ".bench_e2e"
let state_file = Filename.concat workdir "campaign.state.json"

(* What a pass needs, built by [setup] outside the timed region. *)
type ctx =
  | Ltarget of { target : C.target; collect_tests : int }
  | Ptarget of { target : C.target; ndomains : int }
  | Daemon of SD.t

(* [checkpoint_every] is 1 untraced (a checkpoint after every slice: kill
   anywhere) and 0 traced, where the pass checkpoints after every slice
   itself so that slice and checkpoint time are timed apart. *)
let setup ~seed ~checkpoint_every w =
  match w.kind with
  | Local { program; collect_tests } ->
    Ltarget { target = C.target w.name (program ()); collect_tests }
  | Par { program; ndomains } -> Ptarget { target = C.target w.name (program ()); ndomains }
  | Campaign { tenants } ->
    if Sys.file_exists state_file then Sys.remove state_file;
    let cfg = { (SD.default_config ~state_file) with SD.slice_instrs; checkpoint_every } in
    let daemon = match SD.create cfg with Ok d -> d | Error m -> failwith m in
    List.iter (fun v -> SD.submit daemon (tenant_spec ~seed v)) tenants;
    Daemon daemon

(* --- one pass ------------------------------------------------------------- *)

type outcome = {
  paths : int;
  errors : int;
  tests : E.Testcase.t list;
  instrs : int;  (** useful instructions *)
  tiers : Smt.Solver.stats option;  (** per-tier solver counts (local passes) *)
  tenants : (string * (int * int)) list;  (** campaign: name -> paths, errors *)
  slice_ns : int list;  (** campaign: latency of each [Daemon.step] *)
}

let no_outcome =
  { paths = 0; errors = 0; tests = []; instrs = 0; tiers = None; tenants = []; slice_ns = [] }

let local_options ~seed ~collect_tests = { C.default_options with C.seed; collect_tests }
let coverable (t : C.target) = List.length (Cvm.Program.covered_lines t.C.program)

(* The worker factory of [Cloud9.run_parallel], except that every path
   yields a test (paper section 5) and the workers stay reachable, so
   their tests and solvers can be read after the domains join.  With a
   sink, the runtime's own span kinds time mailbox waits, steals,
   replays, quiesce rounds and solver tiers. *)
let par_run ?sink ~seed ~ndomains (t : C.target) =
  let workers = Array.make ndomains None in
  let make_worker i =
    let obs = Option.map (fun s -> Obs.Sink.buffered s i) sink in
    let prof = Option.map Obs.Profile.create obs in
    let solver = Smt.Solver.create ?prof () in
    let cfg =
      Posix.Api.make_config ~solver ?obs ?max_steps:C.default_cluster_options.C.cworker_max_steps
        ~nlines:t.C.program.Cvm.Program.nlines ()
    in
    let make_root () = Posix.Api.initial_state t.C.program ~args:[] in
    let w = Cluster.Worker.create ?prof ~collect_tests:max_int ~id:i ~cfg ~make_root ~seed () in
    workers.(i) <- Some w;
    w
  in
  let cfg = Cluster.Parallel.default_config ?obs:sink ~ndomains ~make_worker () in
  let r = Cluster.Parallel.run ~coverable_lines:(coverable t) cfg in
  let ws = List.filter_map Fun.id (Array.to_list workers) in
  let outcome =
    {
      no_outcome with
      paths = r.Cluster.Parallel.total_paths;
      errors = r.Cluster.Parallel.total_errors;
      tests = List.concat_map (fun w -> w.Cluster.Worker.tests) ws;
      instrs = r.Cluster.Parallel.useful_instrs;
    }
  in
  (outcome, r, ws)

(* Step the daemon until no campaign is runnable, timing each step;
   [after_slice] runs outside the timed step. *)
let drive_daemon ?(after_slice = fun _ _ _ -> ()) d =
  let rec go acc =
    let t0 = now_ns () in
    match SD.step d with
    | `Sliced name ->
      let t1 = now_ns () in
      after_slice name t0 t1;
      go ((t1 - t0) :: acc)
    | `Idle | `Stopped -> List.rev acc
  in
  let slice_ns = go [] in
  let cs = SD.campaigns d in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 cs in
  {
    no_outcome with
    paths = sum (fun c -> c.SC.paths);
    errors = sum (fun c -> c.SC.errors);
    instrs = sum (fun c -> c.SC.useful);
    tenants =
      List.map
        (fun c ->
          (* an unfinished campaign never matches its pinned totals *)
          ( c.SC.spec.SC.sp_name,
            if c.SC.status = SC.Done then (c.SC.paths, c.SC.errors) else (-1, -1) ))
        cs;
    slice_ns;
  }

let run_pass ~seed = function
  | Ltarget { target; collect_tests } ->
    let r = C.run_local ~options:(local_options ~seed ~collect_tests) target in
    {
      no_outcome with
      paths = r.C.paths;
      errors = r.C.errors;
      tests = r.C.tests;
      instrs = r.C.instructions;
      tiers = Some r.C.solver_stats;
    }
  | Ptarget { target; ndomains } ->
    let o, _, _ = par_run ~seed ~ndomains target in
    o
  | Daemon d -> drive_daemon d

(* --- traced passes -------------------------------------------------------- *)

(* A measured value.  Per-layer times are seconds; [shares] also turns
   each into a share of the traced pass. *)
type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }
let count name v = metric name "count" (float_of_int v)
let seconds name ns = metric name "s" (ns /. 1e9)

(* The latency_ns histograms of the sink's registry that carry every one
   of [labels], as (sum ns, count, value). *)
let histograms sink labels =
  List.filter_map
    (fun s ->
      match s.M.s_value with
      | M.Vhistogram h
        when s.M.s_name = "latency_ns"
             && List.for_all (fun l -> List.mem l s.M.s_labels) labels ->
        Some (h.vsum, h.vcount, s.M.s_value)
      | _ -> None)
    (M.snapshot (Obs.Sink.metrics sink))

let total_ns sink labels = List.fold_left (fun acc (s, _, _) -> acc +. s) 0.0 (histograms sink labels)
let solver_ns sink = total_ns sink [ ("kind", "solver_query") ]

let percentile sink labels q =
  match histograms sink labels with
  | (_, _, v) :: _ -> Option.value ~default:0.0 (M.percentile v q)
  | [] -> 0.0

let solver_counters (s : Smt.Solver.stats) =
  [
    count "solver.queries" s.Smt.Solver.queries;
    count "solver.trivial" s.Smt.Solver.trivial;
    count "solver.range_hits" s.Smt.Solver.range_hits;
    count "solver.cache_hits" s.Smt.Solver.cache_hits;
    count "solver.cex_hits" s.Smt.Solver.cex_hits;
    count "solver.sat_calls" s.Smt.Solver.sat_calls;
  ]

(* CDCL counters of the solvers' live persistent instances (an instance
   retired mid-run takes its counts with it; see solver.retirements). *)
let sat_counters solvers =
  let stats = List.filter_map Smt.Solver.inc_sat_stats solvers in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let retired =
    List.fold_left (fun acc s -> acc + (Smt.Solver.inc_stats s).Smt.Solver.retirements) 0 solvers
  in
  [
    count "sat.decisions" (sum (fun s -> s.Smt.Sat.decisions));
    count "sat.propagations" (sum (fun s -> s.Smt.Sat.propagations));
    count "sat.conflicts" (sum (fun s -> s.Smt.Sat.conflicts));
    count "sat.learned" (sum (fun s -> s.Smt.Sat.learned));
    count "solver.retirements" retired;
  ]

let sat_call_readings sink =
  let tier = [ ("kind", "solver_query"); ("tier", "sat_call") ] in
  [
    seconds "solver.sat_call_s" (total_ns sink tier);
    metric "solver.sat_call_us_p50" "us" (percentile sink tier 0.5 /. 1e3);
    metric "solver.sat_call_us_p99" "us" (percentile sink tier 0.99 /. 1e3);
  ]

(* The public loop of [Engine.Driver.run], set up as [Cloud9.run_local]
   sets it up, with a timer around every call into a layer.  The solver
   carries its wall-clock profiler, so solver time is read per tier from
   the [latency_ns{kind=solver_query}] histograms; a reading around each
   handler and test-generation call splits it between branch queries,
   handler calls and test generation.  Returns the outcome, the
   attributed nanoseconds and the readings. *)
let traced_local ~seed ~collect_tests ~sink (t : C.target) =
  let o = local_options ~seed ~collect_tests in
  let solver = Smt.Solver.create ~prof:(Obs.Profile.create sink) () in
  let base =
    Posix.Api.make_config ~solver ?max_steps:o.C.max_steps ~check_div_zero:o.C.check_div_zero
      ~nlines:t.C.program.Cvm.Program.nlines ()
  in
  let handler_ns = ref 0 and handler_solver = ref 0.0 and syscalls = ref 0 in
  let handler c st ~num ~dst ~args =
    let s0 = solver_ns sink and t0 = now_ns () in
    let r = base.E.Executor.handler c st ~num ~dst ~args in
    handler_ns := !handler_ns + (now_ns () - t0);
    handler_solver := !handler_solver +. (solver_ns sink -. s0);
    incr syscalls;
    r
  in
  let cfg = { base with E.Executor.handler } in
  let rng = Random.State.make [| o.C.seed |] in
  let searcher = E.Searcher.of_name ~rng o.C.strategy in
  let st0 = Posix.Api.initial_state t.C.program ~args:[] in
  let select_ns = ref 0 and add_ns = ref 0 and step_ns = ref 0 and steps = ref 0 in
  let tc_ns = ref 0 and tc_solver = ref 0.0 in
  let paths = ref 0 and errors = ref 0 and tests = ref [] and ntests = ref 0 in
  (* every selection's latency: a bucketed histogram would be too coarse *)
  let select_lat = Samples.create () in
  let solver0 = solver_ns sink in
  let t0 = now_ns () in
  searcher.E.Searcher.add st0;
  add_ns := now_ns () - t0;
  let stop = ref false in
  while (not !stop) && searcher.E.Searcher.size () > 0 do
    let t0 = now_ns () in
    match searcher.E.Searcher.select () with
    | None -> stop := true
    | Some st ->
      let t1 = now_ns () in
      select_ns := !select_ns + (t1 - t0);
      Samples.add select_lat (float_of_int (t1 - t0));
      let { E.Executor.running; finished } = E.Executor.step cfg st in
      let t2 = now_ns () in
      step_ns := !step_ns + (t2 - t1);
      incr steps;
      List.iter searcher.E.Searcher.add running;
      add_ns := !add_ns + (now_ns () - t2);
      List.iter
        (fun (st, term) ->
          match term with
          | E.Errors.Pruned -> ()
          | E.Errors.Exit _ | E.Errors.Error _ ->
            incr paths;
            if E.Errors.is_error term then incr errors;
            if !ntests < collect_tests then begin
              let s0 = solver_ns sink and t0 = now_ns () in
              (match E.Testcase.of_state solver st term with
              | Some tc ->
                tests := tc :: !tests;
                incr ntests
              | None -> ());
              tc_ns := !tc_ns + (now_ns () - t0);
              tc_solver := !tc_solver +. (solver_ns sink -. s0)
            end)
        finished
  done;
  (* solver time inside [step] but outside the handler: branch queries
     and concretizations *)
  let branch = solver_ns sink -. solver0 -. !handler_solver -. !tc_solver in
  let sel = Samples.sorted select_lat in
  let stats = cfg.E.Executor.stats in
  let outcome =
    {
      no_outcome with
      paths = !paths;
      errors = !errors;
      tests = !tests;
      instrs = stats.E.Executor.useful_instrs;
      tiers = Some (Smt.Solver.copy_stats solver);
    }
  in
  let f = float_of_int in
  let readings =
    [
      seconds "searcher.select_s" (f !select_ns);
      seconds "searcher.add_s" (f !add_ns);
      count "searcher.selects" !steps;
      metric "searcher.select_ns_p50" "ns" (quantile sel 0.5);
      metric "searcher.select_ns_p99" "ns" (quantile sel 0.99);
      seconds "executor.step_self_s" (f (!step_ns - !handler_ns) -. branch);
      count "executor.steps" !steps;
      count "executor.useful_instrs" stats.E.Executor.useful_instrs;
      count "executor.forks" stats.E.Executor.forks;
      seconds "posix.handler_self_s" (f !handler_ns -. !handler_solver);
      seconds "posix.solver_s" !handler_solver;
      count "posix.syscalls" !syscalls;
      seconds "solver.branch_s" branch;
      seconds "testcase.s" (f !tc_ns);
      seconds "testcase.solver_s" !tc_solver;
      count "testcase.count" !ntests;
    ]
    @ sat_call_readings sink
    @ solver_counters (Smt.Solver.stats solver)
    @ sat_counters [ solver ]
  in
  (outcome, !select_ns + !add_ns + !step_ns + !tc_ns, readings)

(* [Cluster.Parallel.run] with a sink: the runtime's spans give mailbox
   wait, steal round-trip, job replay, quiesce rounds and solver tiers.
   Whatever else the worker domains do (interpretation, forking,
   selection, test generation) is derived as par.other_cpu_s. *)
let traced_par ~seed ~ndomains ~sink t =
  let t0 = now_ns () in
  let o, r, ws = par_run ~sink ~seed ~ndomains t in
  let wall = float_of_int (now_ns () - t0) in
  let solver = solver_ns sink in
  let replay =
    total_ns sink [ ("kind", "job_replay") ] +. total_ns sink [ ("kind", "recovery_replay") ]
  in
  let wait = total_ns sink [ ("kind", "mailbox_wait") ] in
  let quiesce = histograms sink [ ("kind", "quiesce_round") ] in
  let forks =
    List.fold_left (fun acc w -> acc + w.Cluster.Worker.cfg.E.Executor.stats.E.Executor.forks) 0 ws
  in
  let useful = r.Cluster.Parallel.useful_instrs and replayed = r.Cluster.Parallel.replay_instrs in
  let readings =
    [
      count "executor.steps" (useful + replayed);
      count "executor.useful_instrs" useful;
      count "executor.forks" forks;
      count "testcase.count" (List.length o.tests);
      seconds "replay.s" replay;
      count "replay.instrs" replayed;
      metric "replay.share" "ratio" (float_of_int replayed /. float_of_int (max 1 useful));
      seconds "transport.mailbox_wait_s" wait;
      metric "transport.steal_rtt_ms_p50" "ms" (percentile sink [ ("kind", "steal_rtt") ] 0.5 /. 1e6);
      count "transport.steals" r.Cluster.Parallel.steals;
      count "transport.transfers" r.Cluster.Parallel.transfers;
      count "transport.quiesce_rounds" (List.fold_left (fun acc (_, n, _) -> acc + n) 0 quiesce);
      seconds "transport.quiesce_s" (List.fold_left (fun acc (s, _, _) -> acc +. s) 0.0 quiesce);
      seconds "par.solver_cpu_s" solver;
      (* derived, not measured: worker-domain time left after the spans *)
      seconds "par.other_cpu_s" ((float_of_int ndomains *. wall) -. solver -. replay -. wait);
    ]
    @ sat_call_readings sink
    @ solver_counters r.Cluster.Parallel.solver_stats
    @ sat_counters (List.map (fun w -> w.Cluster.Worker.cfg.E.Executor.solver) ws)
  in
  (o, int_of_float (solver +. replay +. wait), readings)

(* The daemon with manual checkpoints after every slice — the untraced
   cadence — so slice and checkpoint time are timed apart. *)
let traced_campaign ~sink d =
  let ckpt_ns = ref 0 and ckpts = ref 0 and bytes = ref 0 and grants = ref [] in
  let after_slice name t0 t1 =
    Obs.Sink.span sink ~name:"slice" ~start_ns:t0 ~stop_ns:t1;
    grants := name :: !grants;
    let c0 = now_ns () in
    SD.checkpoint d;
    let c1 = now_ns () in
    Obs.Sink.span sink ~name:"checkpoint" ~start_ns:c0 ~stop_ns:c1;
    ckpt_ns := !ckpt_ns + (c1 - c0);
    incr ckpts;
    bytes := !bytes + (Unix.stat state_file).Unix.st_size
  in
  let o = drive_daemon ~after_slice d in
  (* scheduler fairness: most grants to others between two to one tenant *)
  let last = Hashtbl.create 64 and max_gap = ref 0 in
  List.iteri
    (fun i name ->
      (match Hashtbl.find_opt last name with
      | Some j -> max_gap := max !max_gap (i - j - 1)
      | None -> ());
      Hashtbl.replace last name i)
    (List.rev !grants);
  let cs = SD.campaigns d in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 cs in
  let slice = List.fold_left ( + ) 0 o.slice_ns in
  let replayed = sum (fun c -> c.SC.replay) in
  let readings =
    [
      seconds "daemon.slice_s" (float_of_int slice);
      count "daemon.slices" (List.length o.slice_ns);
      seconds "snapshot.checkpoint_s" (float_of_int !ckpt_ns);
      count "snapshot.checkpoints" !ckpts;
      metric "snapshot.bytes" "bytes" (float_of_int !bytes);
      count "scheduler.max_gap" !max_gap;
      count "executor.useful_instrs" o.instrs;
      count "replay.instrs" replayed;
      metric "replay.share" "ratio" (float_of_int replayed /. float_of_int (max 1 o.instrs));
      count "transport.transfers" (sum (fun c -> c.SC.transfers));
    ]
  in
  (o, slice + !ckpt_ns, readings)

let traced_pass ~seed ~sink = function
  | Ltarget { target; collect_tests } -> traced_local ~seed ~collect_tests ~sink target
  | Ptarget { target; ndomains } -> traced_par ~seed ~ndomains ~sink target
  | Daemon d -> traced_campaign ~sink d

(* --- the correctness oracle --------------------------------------------- *)

(* Re-execute every generated test concretely.  A test fails unless its
   replay reproduces its own termination; a replay that forks
   (nondeterministic) fails too.  With a sink, one span per batch. *)
let replay_batch = 256

let replay_tests ?sink (t : C.target) tests =
  let failed = ref 0 in
  let replay tc =
    match C.replay_test t tc with
    | Some term when term = tc.E.Testcase.termination -> ()
    | Some _ | None -> incr failed
  in
  let rec batches = function
    | [] -> ()
    | tests ->
      let t0 = now_ns () in
      let rest = ref tests in
      for _ = 1 to replay_batch do
        match !rest with
        | tc :: tl ->
          replay tc;
          rest := tl
        | [] -> ()
      done;
      Option.iter (fun s -> Obs.Sink.span s ~name:"replay_batch" ~start_ns:t0 ~stop_ns:(now_ns ())) sink;
      batches !rest
  in
  let t0 = now_ns () in
  batches tests;
  (List.length tests, !failed, secs (now_ns () - t0))

(* The campaign tenants whose totals differ from the pinned ones. *)
let tenant_mismatches size w o =
  match w.kind with
  | Local _ | Par _ -> []
  | Campaign _ ->
    List.filter_map
      (fun (name, (p, e)) ->
        match List.assoc_opt name o.tenants with
        | Some (p', e') when p' = p && e' = e -> None
        | Some (p', e') -> Some (Printf.sprintf "%s: %d paths %d errors, pinned %d/%d" name p' e' p e)
        | None -> Some (name ^ ": tenant missing"))
      (pinned_tenants size)

(* Totals gate: one message per way [o] differs from the pinned totals. *)
let check_totals size w o =
  let ntests = List.length o.tests in
  (match pinned size w.name with
  | Some x when o.paths = x.Expected.paths && o.errors = x.Expected.errors && ntests = x.Expected.tests
    ->
    []
  | Some x ->
    [
      Printf.sprintf "%d paths %d errors %d tests, pinned %d/%d/%d" o.paths o.errors ntests
        x.Expected.paths x.Expected.errors x.Expected.tests;
    ]
  | None -> [ "no pinned totals" ])
  @ tenant_mismatches size w o

let totals_or_exit size w o =
  match check_totals size w o with
  | [] -> ()
  | msgs ->
    List.iter (fun m -> Printf.eprintf "TOTALS MISMATCH %s: %s\n" w.name m) msgs;
    exit 1

(* Operations attempted and failed, with the replay seconds: replayed
   tests, or campaigns.  A campaign whose totals differ from the pinned
   ones has already stopped the run in [totals_or_exit]. *)
let oracle ?sink ctx o =
  match ctx with
  | Ltarget { target; _ } | Ptarget { target; _ } -> replay_tests ?sink target o.tests
  | Daemon _ -> (List.length o.tenants, 0, 0.0)

(* --- results ---------------------------------------------------------------- *)

type result = {
  workload : string;
  mode : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;  (** everything measured *)
  declared : (string * string) list;  (** the names and units the last line carries *)
  loop_equal : bool;
      (** the traced copy of the driver loop did the untraced pass's work
          (true where there is no copy) *)
  notes : (string * J.t) list;
}

(* The end-to-end metrics every workload reports (BENCHMARK.json).  The
   other measured ones exist on some workloads only, or always read 0
   (failed_ratio, which the line carries as attempted and failed). *)
let end_to_end = [ ("exhaust_s", "s"); ("cpu_s", "s"); ("peak_rss_mb", "MB"); ("setup_s", "s") ]

(* The per-layer metrics every traced run reports (BENCHMARK.json).
   Layer times appear as shares of the traced pass ("%", see [shares]);
   a layer a workload does not exercise reads 0. *)
let per_layer =
  List.map
    (fun n -> (n, "%"))
    [
      "searcher.select_pct"; "searcher.add_pct"; "executor.step_self_pct"; "posix.handler_self_pct";
      "posix.solver_pct"; "solver.branch_pct"; "solver.sat_call_pct"; "testcase.pct";
      "testcase.solver_pct"; "replay.pct"; "transport.mailbox_wait_pct"; "transport.quiesce_pct";
      "par.solver_cpu_pct"; "par.other_cpu_pct"; "daemon.slice_pct"; "snapshot.checkpoint_pct";
    ]
  @ List.map
      (fun n -> (n, "count"))
      [
        "searcher.selects"; "executor.steps"; "executor.useful_instrs"; "executor.forks";
        "posix.syscalls"; "solver.queries"; "solver.trivial"; "solver.range_hits";
        "solver.cache_hits"; "solver.cex_hits"; "solver.sat_calls"; "solver.retirements";
        "testcase.count"; "sat.decisions"; "sat.propagations"; "sat.conflicts"; "sat.learned";
        "simplify.visits"; "simplify.rewrites"; "simplify.memo_hits"; "hashcons.entries";
        "replay.instrs"; "transport.steals"; "transport.transfers"; "transport.quiesce_rounds";
        "daemon.slices"; "snapshot.checkpoints"; "scheduler.max_gap"; "gc.minor_collections";
        "gc.major_collections";
      ]
  @ [
      ("replay.share", "ratio"); ("snapshot.bytes", "bytes"); ("gc.minor_words", "words");
      ("gc.major_words", "words"); ("trace.attributed_pct", "%"); ("trace.overhead_pct", "%");
      ("trace.stale", "count");
    ]

let value_json v unit = J.Obj [ ("value", J.Num v); ("unit", J.Str unit) ]

(* The last line: the declared metrics only, 0 for a layer not exercised. *)
let summary_json r =
  let metric (name, unit) =
    match List.find_opt (fun m -> m.m_name = name) r.metrics with
    | Some m -> (name, value_json m.m_value unit)
    | None -> (name, value_json 0.0 unit)
  in
  J.Obj
    [
      ("correct", J.Bool r.correct);
      ("attempted", J.Num (float_of_int r.attempted));
      ("failed", J.Num (float_of_int r.failed));
      ("metrics", J.Obj (List.map metric r.declared));
    ]

let full_json ~seed r =
  J.Obj
    ([
       ("bench", J.Str "e2e");
       ("workload", J.Str r.workload);
       ("mode", J.Str r.mode);
       ("seed", J.Num (float_of_int seed));
       ("correct", J.Bool r.correct);
       ("attempted", J.Num (float_of_int r.attempted));
       ("failed", J.Num (float_of_int r.failed));
       ("metrics", J.Obj (List.map (fun m -> (m.m_name, value_json m.m_value m.m_unit)) r.metrics));
     ]
    @ r.notes)

(* The schema the last line must have; used by the smoke gate. *)
let schema_errors r =
  match J.parse (J.to_string (summary_json r)) with
  | Error e -> [ "unparsable: " ^ e ]
  | Ok doc ->
    let keys = match doc with J.Obj kv -> List.map fst kv | _ -> [] in
    let missing_keys =
      List.filter (fun k -> not (List.mem k keys)) [ "correct"; "attempted"; "failed"; "metrics" ]
    in
    let metrics = Option.value ~default:J.Null (J.member "metrics" doc) in
    let bad_metric (name, unit) =
      match J.member name metrics with
      | Some m -> (
        match (Option.bind (J.member "value" m) J.to_float, Option.bind (J.member "unit" m) J.to_str) with
        | Some v, Some u when Float.is_finite v && u = unit -> None
        | _ -> Some (name ^ ": malformed"))
      | None -> Some (name ^ ": missing")
    in
    List.map (fun k -> "missing key " ^ k) missing_keys
    @ List.filter_map bad_metric r.declared
    @ if r.attempted < 1 then [ "attempted < 1" ] else []

let print_result ~seed ~out r =
  Printf.printf "workload %s  mode %s  seed %d\n" r.workload r.mode seed;
  List.iter (fun m -> Printf.printf "  %-28s %14.6g %s\n" m.m_name m.m_value m.m_unit) r.metrics;
  Printf.printf "  attempted %d, failed %d, correct %b\n" r.attempted r.failed r.correct;
  let oc = open_out out in
  output_string oc (J.to_string (full_json ~seed r));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" out;
  print_endline (J.to_string (summary_json r))

(* --- the two modes ------------------------------------------------------------ *)

type opts = {
  seed : int;
  seconds : float;
  min_passes : int;
  chrome : string option;  (** traced: write the Chrome trace here *)
}

let min_setups = 25

(* Every pass, the warm-up included, runs at [opts.seed], so the passes
   of one run do the same work and differ only by the host's noise. *)
let untraced ~size ~opts w =
  let seed = opts.seed in
  let setups = ref [] in
  let timed_setup () =
    Gc.full_major ();
    let t0 = now_ns () in
    let ctx = setup ~seed ~checkpoint_every:1 w in
    setups := secs (now_ns () - t0) :: !setups;
    ctx
  in
  let pass () =
    let ctx = timed_setup () in
    let c0 = cpu_s () and t1 = now_ns () in
    let o = run_pass ~seed ctx in
    let wall = secs (now_ns () - t1) and cpu = cpu_s () -. c0 in
    totals_or_exit size w o;
    (ctx, o, wall, cpu)
  in
  ignore (pass ());
  let walls = ref [] and cpus = ref [] and slices = ref [] and last = ref None in
  let started = now_ns () in
  while
    List.length !walls < opts.min_passes
    || (secs (now_ns () - started) < opts.seconds && List.length !walls < 30)
  do
    let ctx, o, wall, cpu = pass () in
    walls := wall :: !walls;
    cpus := cpu :: !cpus;
    slices := List.rev_append o.slice_ns !slices;
    last := Some (ctx, o)
  done;
  (* set-up is milliseconds: sample it more often than there are passes *)
  while List.length !setups < min_setups do
    ignore (timed_setup ())
  done;
  let ctx, o = Option.get !last in
  let attempted, failed, replay_s = oracle ctx o in
  let slice_ms = sort_floats (List.map (fun ns -> float_of_int ns /. 1e6) !slices) in
  let metrics =
    [
      metric "exhaust_s" "s" (median !walls);
      metric "cpu_s" "s" (median !cpus);
      metric "setup_s" "s" (median !setups);
      metric "peak_rss_mb" "MB" (peak_rss_mb ());
      metric "failed_ratio" "ratio" (float_of_int failed /. float_of_int (max 1 attempted));
      metric "passes" "count" (float_of_int (List.length !walls));
    ]
    @ (if o.tests <> [] then [ metric "test_replay_s" "s" replay_s ] else [])
    @
    if !slices <> [] then
      [
        metric "slice_ms_p50" "ms" (quantile slice_ms 0.5);
        metric "slice_ms_p99" "ms" (quantile slice_ms 0.99);
        metric "slice_samples" "count" (float_of_int (Array.length slice_ms));
      ]
    else []
  in
  let samples name xs = (name, J.Arr (List.rev_map (fun x -> J.Num x) xs)) in
  {
    workload = w.name;
    mode = "untraced";
    correct = failed = 0;
    attempted;
    failed;
    metrics;
    declared = end_to_end;
    loop_equal = true;
    notes =
      [
        ( "samples",
          J.Obj [ samples "exhaust_s" !walls; samples "cpu_s" !cpus; samples "setup_s" !setups ] );
      ];
  }

(* Each layer time also as a share of the traced pass's wall time
   (times the worker domains on -par2, where per-domain times add up). *)
let shares ~base readings =
  List.filter_map
    (fun r ->
      if r.m_unit <> "s" then None
      else
        let stem = String.sub r.m_name 0 (String.length r.m_name - 1) in
        Some (metric (stem ^ "pct") "%" (100.0 *. r.m_value /. base)))
    readings

(* Counters that differ between two readings around a pass, read the
   same way on every workload; the rewriter's are the main domain's. *)
let process_counters () = (Gc.quick_stat (), Smt.Simplify.stats ())

let counter_deltas (gc0, simp0) (gc1, simp1) =
  [
    count "simplify.visits" (simp1.Smt.Simplify.visits - simp0.Smt.Simplify.visits);
    count "simplify.rewrites" (simp1.Smt.Simplify.rewrites - simp0.Smt.Simplify.rewrites);
    count "simplify.memo_hits" (simp1.Smt.Simplify.memo_hits - simp0.Smt.Simplify.memo_hits);
    metric "gc.minor_words" "words" (gc1.Gc.minor_words -. gc0.Gc.minor_words);
    metric "gc.major_words" "words" (gc1.Gc.major_words -. gc0.Gc.major_words);
    count "gc.minor_collections" (gc1.Gc.minor_collections - gc0.Gc.minor_collections);
    count "gc.major_collections" (gc1.Gc.major_collections - gc0.Gc.major_collections);
  ]

let traced ~size ~opts w =
  let seed = opts.seed in
  let sink = Obs.Sink.create () in
  (* one pass on a fresh context: its result, wall ns and counter deltas *)
  let pass name ~checkpoint_every f =
    let ctx = setup ~seed ~checkpoint_every w in
    Gc.full_major ();
    let c0 = process_counters () and t0 = now_ns () in
    let r = f ctx in
    let t1 = now_ns () in
    let deltas = counter_deltas c0 (process_counters ()) in
    Obs.Sink.span sink ~name ~start_ns:t0 ~stop_ns:t1;
    (ctx, r, t1 - t0, deltas)
  in
  let untraced_pass name =
    let _, o, ns, _ = pass name ~checkpoint_every:1 (run_pass ~seed) in
    totals_or_exit size w o;
    (o, ns)
  in
  ignore (untraced_pass "warmup_pass");
  let reference, ref1_ns = untraced_pass "untraced_pass" in
  let ctx, (o, attributed, readings), wall, deltas =
    pass "traced_pass" ~checkpoint_every:0 (traced_pass ~seed ~sink)
  in
  totals_or_exit size w o;
  (* a second reference after the traced pass, so that the overhead
     compares against passes on both sides of it *)
  let _, ref2_ns = untraced_pass "untraced_pass" in
  let ref_ns = (ref1_ns + ref2_ns) / 2 in
  (* The copied loop must be the driver's loop: same totals and the same
     work, solver tiers included.  The other traced passes call the same
     entry points as untraced, with a sink; real domains schedule
     nondeterministically, so there only the pinned totals must hold. *)
  let equal =
    match ctx with
    | Ltarget _ ->
      o.paths = reference.paths && o.errors = reference.errors
      && List.length o.tests = List.length reference.tests
      && o.instrs = reference.instrs && o.tiers = reference.tiers
    | Ptarget _ | Daemon _ -> true
  in
  let domains = match ctx with Ptarget { ndomains; _ } -> ndomains | _ -> 1 in
  let base = float_of_int wall /. 1e9 *. float_of_int domains in
  let attributed_pct = 100.0 *. float_of_int attributed /. 1e9 /. base in
  (* the attribution gate covers the passes timed call by call; smoke
     passes are too short for it *)
  let attributed_ok = size = Smoke || domains > 1 || attributed_pct >= 95.0 in
  let stale = not (equal && attributed_ok) in
  if stale then
    Printf.eprintf "per-layer output of %s is stale: %s\n" w.name
      (if equal then Printf.sprintf "attributed %.1f%% < 95%%" attributed_pct
       else "the traced loop no longer matches the untraced pass");
  let attempted, failed, _ = oracle ~sink ctx o in
  let readings =
    readings @ deltas
    @ [
        count "hashcons.entries" (Smt.Expr.hashcons_stats ()).Smt.Expr.table_size;
        seconds "trace.wall_s" (float_of_int wall);
        seconds "trace.reference_wall_s" (float_of_int ref_ns);
        metric "trace.attributed_pct" "%" attributed_pct;
        metric "trace.overhead_pct" "%"
          (100.0 *. ((float_of_int wall /. float_of_int ref_ns) -. 1.0));
        (* in the result line, so a reader of it alone can discard the
           per-layer values; the end-to-end exit status is unaffected *)
        count "trace.stale" (Bool.to_int stale);
      ]
  in
  let readings =
    readings
    @ shares ~base
        (List.filter (fun r -> not (String.starts_with ~prefix:"trace." r.m_name)) readings)
  in
  Option.iter
    (fun file ->
      let oc = open_out file in
      Obs.Sink.write_chrome_trace sink oc;
      close_out oc)
    opts.chrome;
  {
    workload = w.name;
    mode = "traced";
    correct = failed = 0;
    attempted;
    failed;
    metrics = readings;
    declared = per_layer;
    loop_equal = equal;
    notes = [ ("stale", J.Bool stale) ];
  }

(* --- smoke and reference ------------------------------------------------------ *)

(* Every workload at smoke size, both modes, one pass each: only the
   correctness gates and the schema of the last line, no timing. *)
let smoke () =
  let opts = { seed = 42; seconds = 0.0; min_passes = 1; chrome = None } in
  let failures = ref [] in
  List.iter
    (fun w ->
      List.iter
        (fun r ->
          let bad =
            schema_errors r
            @ (if r.correct then [] else [ "replay oracle failed" ])
            @ if r.loop_equal then [] else [ "traced loop differs from the driver's" ]
          in
          Printf.printf "smoke %-22s %-8s attempted %4d failed %d %s\n%!" r.workload r.mode
            r.attempted r.failed
            (if bad = [] then "ok" else "FAIL");
          failures := List.map (fun e -> w.name ^ " " ^ r.mode ^ ": " ^ e) bad @ !failures)
        [ untraced ~size:Smoke ~opts w; traced ~size:Smoke ~opts w ])
    (workloads Smoke);
  if !failures <> [] then begin
    List.iter (fun m -> Printf.printf "E2E SMOKE GATE: %s\n" m) (List.rev !failures);
    exit 1
  end

(* Print the totals of one pass of every workload, in the form of
   expected.ml, for re-pinning. *)
let reference () =
  List.iter
    (fun size ->
      Printf.printf "(* %s *)\n" (match size with Full -> "full" | Smoke -> "smoke");
      List.iter
        (fun w ->
          let o = run_pass ~seed:42 (setup ~seed:42 ~checkpoint_every:1 w) in
          Printf.printf "| %S -> Some { paths = %d; errors = %d; tests = %d }\n%!" w.name o.paths
            o.errors (List.length o.tests);
          if o.tenants <> [] then begin
            print_string "tenants: [";
            List.iter (fun (n, (p, e)) -> Printf.printf " (%S, (%d, %d));" n p e) o.tenants;
            print_endline " ]"
          end)
        (workloads size))
    [ Full; Smoke ]

(* --- command line --------------------------------------------------------------- *)

let usage =
  "usage: main.exe run WORKLOAD [--seed N] [--seconds S] [--traced] [--out FILE] [--trace FILE]\n\
  \       main.exe smoke (or --smoke) | reference | list"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec flags acc = function
    | "--traced" :: rest -> flags (("--traced", "") :: acc) rest
    | flag :: v :: rest when String.starts_with ~prefix:"--" flag -> flags ((flag, v) :: acc) rest
    | [] -> acc
    | other :: _ ->
      prerr_endline ("unexpected argument " ^ other);
      prerr_endline usage;
      exit 2
  in
  let cmd, positional, rest =
    match args with
    | "run" :: w :: rest -> ("run", Some w, rest)
    | cmd :: rest -> (cmd, None, rest)
    | [] -> ("", None, [])
  in
  let flags = flags [] rest in
  let flag name = List.assoc_opt name flags in
  let int_flag name default =
    match flag name with
    | None -> default
    | Some v -> (
      match int_of_string_opt v with
      | Some n -> n
      | None ->
        prerr_endline (name ^ " wants an integer");
        exit 2)
  in
  if not (Sys.file_exists workdir) then Sys.mkdir workdir 0o755;
  at_exit (fun () ->
      List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ state_file; state_file ^ ".tmp" ];
      try Sys.rmdir workdir with Sys_error _ -> ());
  match (cmd, positional) with
  | "run", Some name -> (
    match List.find_opt (fun w -> w.name = name) (workloads Full) with
    | None ->
      prerr_endline ("unknown workload " ^ name);
      exit 2
    | Some w ->
      let opts =
        {
          seed = int_flag "--seed" 42;
          seconds = float_of_int (int_flag "--seconds" 0);
          min_passes = 3;
          chrome = flag "--trace";
        }
      in
      let r =
        if List.mem_assoc "--traced" flags then traced ~size:Full ~opts w
        else untraced ~size:Full ~opts w
      in
      print_result ~seed:opts.seed ~out:(Option.value (flag "--out") ~default:"BENCH_e2e.json") r)
  | ("smoke" | "--smoke"), None -> smoke ()
  | "reference", None -> reference ()
  | "list", None -> List.iter (fun w -> print_endline w.name) (workloads Full)
  | _ ->
    prerr_endline usage;
    exit 2
