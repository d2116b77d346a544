(* Structured trace events.  One variant per observable transition in the
   engine, solver and cluster layers; every event is recorded with the
   virtual tick and the worker id of the sink that emitted it (see
   {!Trace} and {!Sink}), so the payloads carry only event-specific
   fields.  [lb] is the pseudo-worker id of unattributed/driver-side
   events, matching {!Cluster.Faultplan.lb}. *)

let lb = -1

type solver_tier =
  | Trivial     (* answered by normalization alone *)
  | Sat_cache   (* satisfiability-cache hit *)
  | Cex_cache   (* cached-model probe hit *)
  | Det_cache   (* deterministic-model cache hit *)
  | Sat_call    (* full bit-blast + SAT run *)

let tier_to_string = function
  | Trivial -> "trivial"
  | Sat_cache -> "sat_cache"
  | Cex_cache -> "cex_cache"
  | Det_cache -> "det_cache"
  | Sat_call -> "sat_call"

type replay_outcome =
  | Landed        (* the target node materialized *)
  | Broken        (* the expected successor did not exist *)
  | Snapshot_hit  (* an exact snapshot made the replay free *)

let replay_outcome_to_string = function
  | Landed -> "landed"
  | Broken -> "broken"
  | Snapshot_hit -> "snapshot"

type t =
  (* engine *)
  | Fork of { depth : int; arms : int }
  | Path_done of { verdict : string } (* "exit" | "error" | "pruned" *)
  (* solver *)
  | Solver_query of { kind : string; tier : solver_tier; sat : bool }
  (* worker node life cycle *)
  | Replay_start of { depth : int; recovery : bool }
  | Replay_end of { outcome : replay_outcome; recovery : bool }
  | Fence_created of { depth : int }
  | Candidate_added of { depth : int; virt : bool }
  (* cluster control plane *)
  | Job_transfer of { lease : int; src : int; dst : int; count : int; recovery : bool }
  | Transfer_request of { src : int; dst : int; count : int }
  | Lease_grant of { lease : int; dst : int; jobs : int; recovery : bool }
  | Lease_ack of { lease : int }
  | Lease_release of { lease : int; dst : int }
  | Lease_retransmit of { lease : int; dst : int; attempt : int }
  | Lease_evict of { lease : int; dst : int }
  | Crash of { worker : int }
  | Rejoin of { worker : int }
  | Join of { worker : int }
  (* free-form annotation *)
  | Mark of string

let name = function
  | Fork _ -> "fork"
  | Path_done _ -> "path_done"
  | Solver_query _ -> "solver_query"
  | Replay_start _ -> "replay_start"
  | Replay_end _ -> "replay_end"
  | Fence_created _ -> "fence"
  | Candidate_added _ -> "candidate"
  | Job_transfer _ -> "job_transfer"
  | Transfer_request _ -> "transfer_request"
  | Lease_grant _ -> "lease_grant"
  | Lease_ack _ -> "lease_ack"
  | Lease_release _ -> "lease_release"
  | Lease_retransmit _ -> "lease_retransmit"
  | Lease_evict _ -> "lease_evict"
  | Crash _ -> "crash"
  | Rejoin _ -> "rejoin"
  | Join _ -> "join"
  | Mark _ -> "mark"

let num n = Json.Num (float_of_int n)

let args = function
  | Fork { depth; arms } -> [ ("depth", num depth); ("arms", num arms) ]
  | Path_done { verdict } -> [ ("verdict", Json.Str verdict) ]
  | Solver_query { kind; tier; sat } ->
    [ ("kind", Json.Str kind); ("tier", Json.Str (tier_to_string tier)); ("sat", Json.Bool sat) ]
  | Replay_start { depth; recovery } -> [ ("depth", num depth); ("recovery", Json.Bool recovery) ]
  | Replay_end { outcome; recovery } ->
    [ ("outcome", Json.Str (replay_outcome_to_string outcome)); ("recovery", Json.Bool recovery) ]
  | Fence_created { depth } -> [ ("depth", num depth) ]
  | Candidate_added { depth; virt } -> [ ("depth", num depth); ("virtual", Json.Bool virt) ]
  | Job_transfer { lease; src; dst; count; recovery } ->
    [
      ("lease", num lease);
      ("src", num src);
      ("dst", num dst);
      ("count", num count);
      ("recovery", Json.Bool recovery);
    ]
  | Transfer_request { src; dst; count } ->
    [ ("src", num src); ("dst", num dst); ("count", num count) ]
  | Lease_grant { lease; dst; jobs; recovery } ->
    [ ("lease", num lease); ("dst", num dst); ("jobs", num jobs); ("recovery", Json.Bool recovery) ]
  | Lease_ack { lease } -> [ ("lease", num lease) ]
  | Lease_release { lease; dst } -> [ ("lease", num lease); ("dst", num dst) ]
  | Lease_retransmit { lease; dst; attempt } ->
    [ ("lease", num lease); ("dst", num dst); ("attempt", num attempt) ]
  | Lease_evict { lease; dst } -> [ ("lease", num lease); ("dst", num dst) ]
  | Crash { worker } -> [ ("worker", num worker) ]
  | Rejoin { worker } -> [ ("worker", num worker) ]
  | Join { worker } -> [ ("worker", num worker) ]
  | Mark m -> [ ("text", Json.Str m) ]
