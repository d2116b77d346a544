(* The campaign daemon: owns a queue of campaigns, advances them one
   fair-scheduled slice at a time through the existing runtimes, and
   survives its own death — state is checkpointed to a versioned
   snapshot (atomic rename-on-write) and restored on restart, resuming
   every campaign from its last drained barrier.

   Control plane: a JSONL command file (or pipe) polled by byte offset —
   only complete newline-terminated lines are consumed, so a writer
   caught mid-line is simply picked up on the next poll.  Events go out
   as JSONL appended to the events file. *)

module J = Obs.Json

type config = {
  state_file : string;          (* snapshot path; restored when present *)
  control_file : string option; (* JSONL commands in; None = no control plane *)
  events_file : string option;  (* JSONL events out; None = discard *)
  slice_instrs : int;           (* default per-slice instruction budget *)
  checkpoint_every : int;       (* slices between automatic checkpoints; 0 = manual only *)
  obs : Obs.Sink.t option;
  telemetry : Telemetry.config option; (* None = telemetry plane off (zero cost) *)
}

let default_config ~state_file =
  {
    state_file;
    control_file = None;
    events_file = None;
    slice_instrs = 20_000;
    checkpoint_every = 4;
    obs = None;
    telemetry = None;
  }

type t = {
  cfg : config;
  sched : Scheduler.t;
  campaigns : (string, Campaign.t) Hashtbl.t;
  tele : Telemetry.t option;
  frags : (string, (int * Campaign.status) * string) Hashtbl.t;
      (* name -> (slices, status) at encoding, snapshot fragment *)
  mutable control_pos : int;     (* bytes of the control file consumed *)
  mutable slices_since_ckpt : int;
  mutable stopped : bool;
}

(* --- events ------------------------------------------------------------ *)

let emit t ev =
  match t.cfg.events_file with
  | None -> ()
  | Some path ->
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (Control.event_to_line ev))

(* Per-campaign obs metrics, labeled by campaign name.  [Metrics.counter]
   is find-or-create, so resolving per slice is cheap and correct. *)
let bump t (c : Campaign.t) ~paths ~errors ~instrs =
  match t.cfg.obs with
  | None -> ()
  | Some sink ->
    let m = Obs.Sink.metrics sink in
    let labels = [ ("campaign", c.Campaign.spec.Campaign.sp_name) ] in
    Obs.Metrics.incr (Obs.Metrics.counter m ~labels "campaign_slices");
    Obs.Metrics.add (Obs.Metrics.counter m ~labels "campaign_paths") paths;
    Obs.Metrics.add (Obs.Metrics.counter m ~labels "campaign_errors") errors;
    Obs.Metrics.add (Obs.Metrics.counter m ~labels "campaign_instrs") instrs

(* Telemetry hooks.  [telemetry_slice] folds one granted slice into the
   campaign's progress estimator and emits one `telemetry` event per
   health transition; [telemetry_status] rewrites the status surfaces
   when the cadence is due.  Both are single option matches when the
   plane is disabled. *)
let telemetry_slice t (c : Campaign.t) ~useful ~replay ~solver_queries ~crashes ~retransmits =
  match t.tele with
  | None -> ()
  | Some tele ->
    let name = c.Campaign.spec.Campaign.sp_name in
    let runnable =
      Hashtbl.fold (fun n c acc -> if Campaign.runnable c then n :: acc else acc) t.campaigns []
    in
    let slice =
      {
        Obs.Progress.sl_coverage = c.Campaign.coverage_frac;
        sl_useful = useful;
        sl_replay = replay;
        sl_solver_queries = solver_queries;
        sl_frontier_depths = List.map Engine.Path.length c.Campaign.frontier;
        sl_crashes = crashes;
        sl_retransmits = retransmits;
      }
    in
    let done_ = c.Campaign.status = Campaign.Done in
    List.iter
      (fun (tr : Telemetry.transition) ->
        let progress =
          match Telemetry.progress tele tr.tr_name with
          | Some p -> Obs.Progress.to_json p
          | None -> J.Null
        in
        emit t
          (Control.Telemetry
             {
               name = tr.tr_name;
               from_ = Telemetry.health_to_string tr.tr_from;
               to_ = Telemetry.health_to_string tr.tr_to;
               progress;
             }))
      (Telemetry.observe tele ~name ~runnable ~done_ slice)

let campaigns t =
  Hashtbl.fold (fun _ c acc -> c :: acc) t.campaigns []
  |> List.sort (fun a b ->
         compare a.Campaign.spec.Campaign.sp_name b.Campaign.spec.Campaign.sp_name)

let campaign_pairs t =
  List.map (fun c -> (c.Campaign.spec.Campaign.sp_name, Campaign.summary c)) (campaigns t)

let telemetry_flush t =
  match t.tele with
  | None -> ()
  | Some tele ->
    let metrics = Option.map (fun s -> Obs.Metrics.snapshot (Obs.Sink.metrics s)) t.cfg.obs in
    Telemetry.write_status tele ~rows:(campaign_pairs t) ~metrics

let telemetry_status t =
  match t.tele with
  | None -> ()
  | Some tele -> if Telemetry.due tele then telemetry_flush t

(* --- snapshotting ------------------------------------------------------ *)

(* A campaign's snapshot fragment, encoded again only when its slice
   count or status moved since the last encoding: every other persisted
   field changes only together with a slice. *)
let fragment t (c : Campaign.t) =
  let name = c.Campaign.spec.Campaign.sp_name in
  let key = (c.Campaign.slices, c.Campaign.status) in
  match Hashtbl.find_opt t.frags name with
  | Some (k, f) when k = key -> f
  | _ ->
    let f = Snapshot.campaign_fragment c in
    Hashtbl.replace t.frags name (key, f);
    f

let checkpoint t =
  let cs = campaigns t in
  Snapshot.save t.cfg.state_file ~rotation:(Scheduler.rotation t.sched) (List.map (fragment t) cs);
  t.slices_since_ckpt <- 0;
  emit t (Control.Checkpointed { file = t.cfg.state_file; campaigns = List.length cs })

(* --- construction / restore ------------------------------------------- *)

let create cfg =
  let t =
    {
      cfg;
      sched = Scheduler.create ();
      campaigns = Hashtbl.create 16;
      frags = Hashtbl.create 16;
      tele = Option.map Telemetry.create cfg.telemetry;
      control_pos = 0;
      slices_since_ckpt = 0;
      stopped = false;
    }
  in
  if Sys.file_exists cfg.state_file then begin
    match Snapshot.load cfg.state_file with
    | Error e -> Error (Printf.sprintf "restore from %s failed: %s" cfg.state_file e)
    | Ok st ->
      List.iter
        (fun c -> Hashtbl.replace t.campaigns c.Campaign.spec.Campaign.sp_name c)
        st.Snapshot.st_campaigns;
      Scheduler.restore t.sched st.Snapshot.st_rotation;
      (* names present as campaigns but missing from the persisted
         rotation (e.g. a snapshot edited by hand) re-enter at the back *)
      List.iter
        (fun c -> Scheduler.add t.sched c.Campaign.spec.Campaign.sp_name)
        st.Snapshot.st_campaigns;
      Ok t
  end
  else Ok t

let find t name = Hashtbl.find_opt t.campaigns name

let campaign_rows t names =
  names
  |> List.sort compare
  |> List.filter_map (fun n -> Option.map Campaign.summary (find t n))

(* --- command handling -------------------------------------------------- *)

let handle_submit t (spec : Campaign.spec) =
  let name = spec.Campaign.sp_name in
  if Hashtbl.mem t.campaigns name then
    emit t (Control.Rejected { line = name; reason = "duplicate campaign name" })
  else begin
    match Core.Registry.resolve ~name:spec.sp_target ~variant:spec.sp_variant with
    | None ->
      emit t
        (Control.Rejected
           {
             line = name;
             reason =
               Printf.sprintf "unknown target %s%s" spec.sp_target
                 (match spec.sp_variant with Some v -> "/" ^ v | None -> "");
           })
    | Some _ ->
      Hashtbl.replace t.campaigns name (Campaign.create spec);
      Scheduler.add t.sched name;
      emit t (Control.Accepted name)
  end

let handle_command t = function
  | Control.Submit spec -> handle_submit t spec
  | Control.Status None ->
    let names = Hashtbl.fold (fun n _ acc -> n :: acc) t.campaigns [] in
    emit t (Control.Status_report (campaign_rows t names))
  | Control.Status (Some name) -> (
    match find t name with
    | None -> emit t (Control.Rejected { line = name; reason = "unknown campaign" })
    | Some c -> emit t (Control.Status_report [ Campaign.summary c ]))
  | Control.Pause name -> (
    match find t name with
    | Some c when Campaign.runnable c ->
      c.Campaign.status <- Campaign.Paused;
      emit t (Control.Accepted name)
    | Some _ -> emit t (Control.Rejected { line = name; reason = "not runnable" })
    | None -> emit t (Control.Rejected { line = name; reason = "unknown campaign" }))
  | Control.Resume name -> (
    match find t name with
    | Some c when c.Campaign.status = Campaign.Paused ->
      c.Campaign.status <- (if c.Campaign.started then Campaign.Running else Campaign.Queued);
      emit t (Control.Accepted name)
    | Some _ -> emit t (Control.Rejected { line = name; reason = "not paused" })
    | None -> emit t (Control.Rejected { line = name; reason = "unknown campaign" }))
  | Control.Cancel name -> (
    match find t name with
    | Some c when c.Campaign.status <> Campaign.Done ->
      c.Campaign.status <- Campaign.Cancelled;
      Scheduler.remove t.sched name;
      emit t (Control.Accepted name)
    | Some _ -> emit t (Control.Rejected { line = name; reason = "already done" })
    | None -> emit t (Control.Rejected { line = name; reason = "unknown campaign" }))
  | Control.Checkpoint -> checkpoint t
  | Control.Shutdown ->
    checkpoint t;
    telemetry_flush t; (* the final status document must carry the final totals *)
    emit t Control.Shutting_down;
    t.stopped <- true

(* Poll the control file from the consumed byte offset, handling every
   *complete* (newline-terminated) line.  A trailing partial line stays
   unconsumed until its newline arrives. *)
let poll_control t =
  match t.cfg.control_file with
  | None -> ()
  | Some path when not (Sys.file_exists path) -> ()
  | Some path ->
    let ic = open_in_bin path in
    let tail =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let len = in_channel_length ic in
          if len <= t.control_pos then ""
          else begin
            seek_in ic t.control_pos;
            really_input_string ic (len - t.control_pos)
          end)
    in
    let consumed = ref 0 in
    let start = ref 0 in
    String.iteri
      (fun i ch ->
        if ch = '\n' then begin
          let line = String.sub tail !start (i - !start) in
          start := i + 1;
          consumed := i + 1;
          let line = String.trim line in
          if line <> "" && not t.stopped then
            match Control.parse_command line with
            | Ok cmd -> handle_command t cmd
            | Error reason -> emit t (Control.Rejected { line; reason })
        end)
      tail;
    t.control_pos <- t.control_pos + !consumed

(* --- slicing ----------------------------------------------------------- *)

let run_slice t (c : Campaign.t) =
  let s = c.Campaign.spec in
  match Core.Registry.resolve ~name:s.Campaign.sp_target ~variant:s.sp_variant with
  | None ->
    (* the target vanished between snapshot and restore (e.g. registry
       change): fail the campaign rather than the daemon *)
    c.Campaign.status <- Campaign.Cancelled;
    Scheduler.remove t.sched s.sp_name;
    emit t
      (Control.Service_error
         (Printf.sprintf "campaign %s: target %s no longer resolvable" s.sp_name s.sp_target))
  | Some target -> (
    let coverable = List.length (Cvm.Program.covered_lines target.Core.Cloud9.program) in
    match s.sp_runtime with
    | Campaign.Parallel ndomains ->
      let options =
        {
          Core.Cloud9.default_cluster_options with
          cworker_max_steps = Some s.sp_max_steps;
          cseed = s.sp_seed;
        }
      in
      let r = Core.Cloud9.run_parallel ?obs:t.cfg.obs ~ndomains ~options target in
      Campaign.apply_parallel c r;
      bump t c ~paths:r.Cluster.Parallel.total_paths ~errors:r.Cluster.Parallel.total_errors
        ~instrs:(r.Cluster.Parallel.useful_instrs + r.Cluster.Parallel.replay_instrs);
      telemetry_slice t c ~useful:r.Cluster.Parallel.useful_instrs
        ~replay:r.Cluster.Parallel.replay_instrs
        ~solver_queries:r.Cluster.Parallel.solver_stats.Smt.Solver.queries
        ~crashes:r.Cluster.Parallel.crashes ~retransmits:r.Cluster.Parallel.retransmits;
      emit t (Control.Campaign_done { name = s.sp_name; summary = Campaign.summary c })
    | Campaign.Sim -> (
      let options =
        {
          Core.Cloud9.default_cluster_options with
          nworkers = s.sp_workers;
          speed = s.sp_speed;
          cworker_max_steps = Some s.sp_max_steps;
          cseed = s.sp_seed;
        }
      in
      let budget = Option.value s.sp_slice_instrs ~default:t.cfg.slice_instrs in
      let resume = Campaign.resume_export c in
      c.Campaign.status <- Campaign.Running;
      let r = Core.Cloud9.run_cluster_slice ?obs:t.cfg.obs ~options ?resume ~budget target in
      match Campaign.apply_slice c r ~coverable with
      | Error e ->
        c.Campaign.status <- Campaign.Paused;
        emit t (Control.Service_error e)
      | Ok () ->
        bump t c ~paths:r.Cluster.Driver.total_paths ~errors:r.Cluster.Driver.total_errors
          ~instrs:(r.Cluster.Driver.useful_instrs + r.Cluster.Driver.replay_instrs);
        telemetry_slice t c ~useful:r.Cluster.Driver.useful_instrs
          ~replay:r.Cluster.Driver.replay_instrs
          ~solver_queries:r.Cluster.Driver.solver_stats.Smt.Solver.queries
          ~crashes:r.Cluster.Driver.crashes ~retransmits:r.Cluster.Driver.retransmits;
        if c.Campaign.status = Campaign.Done then
          emit t (Control.Campaign_done { name = s.sp_name; summary = Campaign.summary c })
        else emit t (Control.Progress { name = s.sp_name; summary = Campaign.summary c })))

(* One daemon step: drain the control plane, then grant one slice to the
   next runnable campaign in rotation. *)
let step t =
  poll_control t;
  if t.stopped then `Stopped
  else
    let runnable name = match find t name with Some c -> Campaign.runnable c | None -> false in
    match Scheduler.next t.sched ~runnable with
    | None -> `Idle
    | Some name ->
      (match find t name with
      | None -> () (* unreachable: runnable implied presence *)
      | Some c -> run_slice t c);
      t.slices_since_ckpt <- t.slices_since_ckpt + 1;
      if t.cfg.checkpoint_every > 0 && t.slices_since_ckpt >= t.cfg.checkpoint_every then
        checkpoint t;
      telemetry_status t;
      `Sliced name

(* Run until shutdown.  [idle_exit] stops (with a final checkpoint) once
   no campaign is runnable — the batch mode the bench and tests use;
   without it an idle daemon sleeps [poll_s] between control polls. *)
let run ?(poll_s = 0.05) ?(idle_exit = false) t =
  let rec loop () =
    match step t with
    | `Stopped -> ()
    | `Sliced _ -> loop ()
    | `Idle ->
      if idle_exit then begin
        checkpoint t;
        telemetry_flush t;
        emit t Control.Shutting_down;
        t.stopped <- true
      end
      else begin
        Unix.sleepf poll_s;
        loop ()
      end
  in
  loop ()

let submit t spec = handle_submit t spec
let telemetry t = t.tele
