(** The Cloud9 load balancer (paper section 3.3): classifies workers as
    under/overloaded by queue-length mean and standard deviation, pairs
    them from the two ends of the sorted list, and issues transfer
    requests.  Also maintains the global coverage overlay. *)

type request = { src : int; dst : int; count : int }

type t

(** [delta] is the classification constant (under if [l < mean - delta*sigma],
    over if [l > mean + delta*sigma]).  With [starved_only] (default
    false) only workers that reported an empty queue count as under, so
    no transfer ever goes to a worker that still has work.  [obs] traces
    issued transfer requests and exports the queue mean/sigma gauges. *)
val create : ?delta:float -> ?starved_only:bool -> ?obs:Obs.Sink.t -> unit -> t

(** Stop issuing transfer requests (Fig. 13's mid-run disable). *)
val disable : t -> unit

(** Record a worker's status update: merge its coverage into the global
    overlay, remember its queue length (and the report [tick]), and
    return the merged global vector for the worker to fold back into its
    local strategy. *)
val report : ?tick:int -> t -> worker:int -> queue_len:int -> coverage:Bytes.t -> Bytes.t

(** OR a vector into the global overlay (which starts empty and grows
    to the vectors' length on the first merge). *)
val merge_coverage : t -> Bytes.t -> unit

(** Drop a departed worker's entries so its stale queue length no longer
    skews classification (called on a crash). *)
val forget : t -> worker:int -> unit

(** Compute transfer requests from the last reported queue lengths.  Each
    pair moves half the difference, capped at a quarter of the source's
    queue; the internal ledger is updated optimistically so consecutive
    rounds do not re-issue the same transfers.  When [now] is given,
    workers whose last report is older than [staleness] ticks are
    skipped — silent workers neither skew the mean/sigma classification
    nor attract transfers. *)
val rebalance : ?now:int -> ?staleness:int -> t -> request list

(** A copy of the global overlay. *)
val global_coverage : t -> Bytes.t
