(** The campaign daemon: a queue of campaigns advanced one fair-scheduled
    slice at a time, checkpointed to a versioned snapshot and restored on
    restart, driven by a JSONL control plane. *)

type config = {
  state_file : string;          (** snapshot path; restored when present *)
  control_file : string option; (** JSONL commands in; [None] = no control plane *)
  events_file : string option;  (** JSONL events out; [None] = discard *)
  slice_instrs : int;           (** default per-slice instruction budget *)
  checkpoint_every : int;       (** slices between automatic checkpoints; 0 = manual only *)
  obs : Obs.Sink.t option;
  telemetry : Telemetry.config option;
      (** [None] disables the telemetry plane entirely (zero cost) *)
}

val default_config : state_file:string -> config

type t

(** How many simulated campaigns keep their cluster alive between slices
    (a fixed constant).  Every other campaign resumes its next slice
    from its stored frontier. *)
val warm_limit : int

(** Does the daemon hold this campaign's cluster alive between slices?
    Reported in summary rows as ["warm"]; never persisted. *)
val is_warm : t -> string -> bool

(** Restores from [state_file] when it exists; [Error] on a corrupt or
    version-mismatched snapshot. *)
val create : config -> (t, string) result

(** Enqueue a campaign directly (same path as a control-plane submit:
    duplicate names and unresolvable targets are rejected via events). *)
val submit : t -> Campaign.spec -> unit

(** Campaigns sorted by name. *)
val campaigns : t -> Campaign.t list

val find : t -> string -> Campaign.t option

(** Snapshot now (atomic), emitting a [Checkpointed] event. *)
val checkpoint : t -> unit

(** One step: drain newly-arrived complete control lines, then grant one
    slice to the next runnable campaign in rotation. *)
val step : t -> [ `Sliced of string | `Idle | `Stopped ]

(** Run until a shutdown command; [idle_exit] instead stops (with a
    final checkpoint) once no campaign is runnable — batch mode.  An
    idle daemon sleeps [poll_s] seconds between control polls. *)
val run : ?poll_s:float -> ?idle_exit:bool -> t -> unit

(** The daemon's telemetry aggregator, when the plane is enabled. *)
val telemetry : t -> Telemetry.t option
