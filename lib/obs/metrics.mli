(** The metrics registry: named counters, gauges and fixed-bucket
    histograms, optionally labeled.  Handles are resolved once at
    component construction; updating one is a single mutable-field
    write, so instrumented hot paths never pay a registry lookup. *)

type labels = (string * string) list

type counter
type gauge
type histogram
type t

val create : unit -> t

(** Find-or-create.  Re-registering a name+labels pair with a different
    instrument type raises [Invalid_argument]; re-registering with the
    same type returns the existing handle (labeled families are built by
    registering one name under several label sets). *)
val counter : t -> ?labels:labels -> string -> counter

val gauge : t -> ?labels:labels -> string -> gauge

(** [buckets] are ascending upper bounds; an implicit +inf bucket is
    appended. *)
val histogram : t -> ?labels:labels -> ?buckets:float array -> string -> histogram

(** Exponential (x2) bucket bounds for wall-clock latencies in
    nanoseconds, 100ns .. ~6.7s.  All [latency_ns] histograms in the
    profiling layer share these so merges line up bucket-for-bucket. *)
val latency_ns_buckets : float array

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int
val set : gauge -> float -> unit
val gauge_value : gauge -> float
val observe : histogram -> float -> unit

(** Fold [src] into [into]: counters and histogram buckets add, gauges
    take [src]'s value, missing instruments are registered on the fly.
    Used to flush a per-domain registry into the shared one. *)
val merge_into : into:t -> t -> unit

type value =
  | Vcounter of int
  | Vgauge of float
  | Vhistogram of { vbounds : float array; vcounts : int array; vsum : float; vcount : int }

type sample = { s_name : string; s_labels : labels; s_value : value }

(** Samples in registration order. *)
type snapshot = sample list

(** A histogram's arrays are shared with later snapshots taken before its
    next observation (and its bounds with the registry): read-only. *)
val snapshot : t -> snapshot

(** Counters and histograms report the delta since [base]; gauges keep
    the newer sample. *)
val diff : base:snapshot -> snapshot -> snapshot

val find : snapshot -> string -> labels -> sample option

(** [percentile v q] estimates the [q]-quantile ([0. <= q <= 1.]) of a
    histogram sample by linear interpolation within the bucket holding
    the target rank (lower edge of the first bucket is 0; ranks landing
    in the +inf overflow bucket clamp to the last finite bound).
    [None] for non-histograms and empty histograms. *)
val percentile : value -> float -> float option

(** One JSON object per line:
    [{"metric":...,"labels":{...},"type":...,"value":...}]. *)
val write_jsonl : Buffer.t -> snapshot -> unit

(** Prometheus text exposition: one [# TYPE] header per family, then one
    sample line per label set; histograms expand to cumulative
    [_bucket{le=...}] series plus [_sum] and [_count]. *)
val write_prometheus : Buffer.t -> snapshot -> unit
