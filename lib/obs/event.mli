(** Structured trace events emitted by the engine, solver and cluster
    layers.  Tick and worker id are attached by {!Trace}/{!Sink}; the
    payloads carry only event-specific fields. *)

(** Pseudo-worker id of unattributed (driver / load-balancer) events. *)
val lb : int

type solver_tier =
  | Trivial      (** answered by normalization alone *)
  | Sat_cache    (** satisfiability-cache hit *)
  | Cex_cache    (** cached-model probe hit *)
  | Det_cache    (** deterministic-model cache hit *)
  | Sat_call     (** full bit-blast + SAT run *)

val tier_to_string : solver_tier -> string

type replay_outcome =
  | Landed        (** the target node materialized *)
  | Broken        (** the expected successor did not exist *)
  | Snapshot_hit  (** an exact snapshot made the replay free *)

val replay_outcome_to_string : replay_outcome -> string

type t =
  | Fork of { depth : int; arms : int }
  | Path_done of { verdict : string }  (** "exit" | "error" | "pruned" *)
  | Solver_query of { kind : string; tier : solver_tier; sat : bool }
  | Replay_start of { depth : int; recovery : bool }
  | Replay_end of { outcome : replay_outcome; recovery : bool }
  | Fence_created of { depth : int }
  | Candidate_added of { depth : int; virt : bool }
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
  | Mark of string

val name : t -> string

(** Event-specific fields as JSON object members. *)
val args : t -> (string * Json.t) list
