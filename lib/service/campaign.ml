(* A campaign: one target × strategy × budget submitted to the testing
   service.  The mutable half is everything the daemon accumulates across
   scheduling slices — cumulative counters, the checkpointed frontier,
   the ban set and the union coverage vector — which is exactly what the
   snapshot codec persists (see {!Snapshot}).

   A simulated-runtime campaign advances in preemptible slices of a
   simulated cluster ({!Cluster.Driver.advance}): each slice runs an
   instruction budget and drains to a barrier whose export replaces the
   stored frontier.  The cluster is either one the daemon kept warm
   since the campaign's last slice, or a cold one resumed from the stored
   frontier ({!resume_export}); either way the stored frontier is the
   campaign's whole persisted progress, so warm state is never needed to
   restore it.  A multicore campaign runs to completion in a single
   (non-preemptible) turn on real domains. *)

module Path = Engine.Path

type runtime = Sim | Parallel of int

type spec = {
  sp_name : string;            (* unique campaign id within the service *)
  sp_target : string;          (* Core.Registry target name *)
  sp_variant : string option;  (* harness variant; None = default *)
  sp_runtime : runtime;
  sp_workers : int;            (* simulated workers per slice *)
  sp_speed : int;              (* instructions per worker per tick *)
  sp_max_steps : int;          (* per-path instruction cap *)
  sp_seed : int;
  sp_slice_instrs : int option; (* per-campaign budget override *)
}

type status = Queued | Running | Paused | Done | Cancelled

let status_to_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Paused -> "paused"
  | Done -> "done"
  | Cancelled -> "cancelled"

let status_of_string = function
  | "queued" -> Ok Queued
  | "running" -> Ok Running
  | "paused" -> Ok Paused
  | "done" -> Ok Done
  | "cancelled" -> Ok Cancelled
  | s -> Error (Printf.sprintf "unknown campaign status %S" s)

type t = {
  spec : spec;
  mutable status : status;
  mutable paths : int;         (* cumulative across slices *)
  mutable errors : int;
  mutable useful : int;
  mutable replay : int;
  mutable transfers : int;
  mutable slices : int;
  mutable started : bool;      (* false = next slice seeds the root job *)
  mutable frontier : Path.t list; (* unexplored nodes at the last barrier *)
  mutable bans : Path.t list;
  mutable coverage : Bytes.t;  (* union line bit vector across slices *)
  mutable coverable : int;     (* denominator; 0 until the first slice *)
  mutable coverage_frac : float;
}

let create spec =
  {
    spec;
    status = Queued;
    paths = 0;
    errors = 0;
    useful = 0;
    replay = 0;
    transfers = 0;
    slices = 0;
    started = false;
    frontier = [];
    bans = [];
    coverage = Bytes.create 0;
    coverable = 0;
    coverage_frac = 0.0;
  }

(* Runnable = the scheduler may hand it a slice. *)
let runnable c = match c.status with Queued | Running -> true | Paused | Done | Cancelled -> false

(* [coverable] is 0 until the first slice measures it: the fraction is
   then unknown, not the full coverage of an empty program *)
let recompute_coverage_frac c =
  if c.coverable > 0 then
    c.coverage_frac <- Engine.Coverage.(fraction ~coverable:c.coverable (popcount c.coverage))

(* Fold one simulated slice into the campaign.  The slice must have
   reached a drained barrier ([export] present); its frontier replaces
   the stored one, and an empty exported frontier means the execution
   tree is fully explored — the campaign is done. *)
let apply_slice c (r : Cluster.Driver.result) ~coverable =
  c.slices <- c.slices + 1;
  c.paths <- c.paths + r.Cluster.Driver.total_paths;
  c.errors <- c.errors + r.Cluster.Driver.total_errors;
  c.useful <- c.useful + r.Cluster.Driver.useful_instrs;
  c.replay <- c.replay + r.Cluster.Driver.replay_instrs;
  c.transfers <- c.transfers + r.Cluster.Driver.transfers;
  c.started <- true;
  c.coverable <- coverable;
  match r.Cluster.Driver.export with
  | None ->
    Error
      (Printf.sprintf "campaign %s: slice %d ended without a frontier export (max_ticks bailout)"
         c.spec.sp_name c.slices)
  | Some fx ->
    c.frontier <- fx.Cluster.Driver.fx_jobs;
    c.bans <- fx.Cluster.Driver.fx_bans;
    c.coverage <- Engine.Coverage.union_into c.coverage fx.Cluster.Driver.fx_coverage;
    recompute_coverage_frac c;
    if c.frontier = [] then c.status <- Done;
    Ok ()

(* Fold a one-shot multicore run: the campaign completes in this turn. *)
let apply_parallel c (r : Cluster.Parallel.result) =
  c.slices <- c.slices + 1;
  c.paths <- c.paths + r.Cluster.Parallel.total_paths;
  c.errors <- c.errors + r.Cluster.Parallel.total_errors;
  c.useful <- c.useful + r.Cluster.Parallel.useful_instrs;
  c.replay <- c.replay + r.Cluster.Parallel.replay_instrs;
  c.transfers <- c.transfers + r.Cluster.Parallel.transfers;
  c.started <- true;
  c.frontier <- [];
  c.coverage_frac <- r.Cluster.Parallel.final_coverage;
  c.status <- Done

(* The resume point handed to the next slice; [None] = seed the root. *)
let resume_export c =
  if not c.started then None
  else
    Some
      {
        Cluster.Driver.fx_jobs = c.frontier;
        fx_bans = c.bans;
        fx_coverage = Bytes.create 0;
      }

(* Control-plane summary (one JSONL [status] event row).  [warm]: the
   daemon holds the campaign's cluster alive between slices. *)
let summary ~warm c =
  let module J = Obs.Json in
  J.Obj
    [
      ("name", J.Str c.spec.sp_name);
      ("target", J.Str c.spec.sp_target);
      ( "variant",
        match c.spec.sp_variant with Some v -> J.Str v | None -> J.Null );
      ( "runtime",
        match c.spec.sp_runtime with
        | Sim -> J.Str "sim"
        | Parallel n -> J.Obj [ ("domains", J.Num (float_of_int n)) ] );
      ("status", J.Str (status_to_string c.status));
      ("warm", J.Bool warm);
      ("paths", J.Num (float_of_int c.paths));
      ("errors", J.Num (float_of_int c.errors));
      ("instructions", J.Num (float_of_int (c.useful + c.replay)));
      ("slices", J.Num (float_of_int c.slices));
      ("frontier", J.Num (float_of_int (List.length c.frontier)));
      ("coverage", J.Num c.coverage_frac);
    ]
