(** A campaign: one target × strategy × budget submitted to the testing
    service, advanced in preemptible slices (simulated runtime) or one
    non-preemptible turn (multicore runtime).  The mutable half is what
    {!Snapshot} persists. *)

type runtime =
  | Sim  (** simulated cluster; preemptible and checkpointable mid-flight *)
  | Parallel of int  (** real domains; runs to completion in one turn *)

type spec = {
  sp_name : string;
  sp_target : string;            (** {!Core.Registry} target name *)
  sp_variant : string option;
  sp_runtime : runtime;
  sp_workers : int;
  sp_speed : int;
  sp_max_steps : int;
  sp_seed : int;
  sp_slice_instrs : int option;  (** per-campaign slice-budget override *)
}

type status = Queued | Running | Paused | Done | Cancelled

val status_to_string : status -> string
val status_of_string : string -> (status, string) result

type t = {
  spec : spec;
  mutable status : status;
  mutable paths : int;
  mutable errors : int;
  mutable useful : int;
  mutable replay : int;
  mutable transfers : int;
  mutable slices : int;
  mutable started : bool;   (** [false] = next slice seeds the root job *)
  mutable frontier : Engine.Path.t list;
  mutable bans : Engine.Path.t list;
  mutable coverage : Bytes.t;
  mutable coverable : int;
  mutable coverage_frac : float;
}

val create : spec -> t

(** The scheduler may hand it a slice (Queued or Running). *)
val runnable : t -> bool

(** Recompute [coverage_frac] from [coverage] once [coverable] is known. *)
val recompute_coverage_frac : t -> unit

(** Fold one simulated slice in; [Error] when the slice ended without a
    frontier export (a [max_ticks] bailout mid-flight).  An empty
    exported frontier marks the campaign [Done]. *)
val apply_slice : t -> Cluster.Driver.result -> coverable:int -> (unit, string) result

(** Fold a one-shot multicore run in; the campaign completes. *)
val apply_parallel : t -> Cluster.Parallel.result -> unit

(** Resume point for the next slice; [None] = seed the root. *)
val resume_export : t -> Cluster.Driver.frontier_export option

(** Control-plane summary row.  [warm] says whether the daemon holds the
    campaign's simulated cluster alive between slices; it is reported,
    never persisted. *)
val summary : warm:bool -> t -> Obs.Json.t
