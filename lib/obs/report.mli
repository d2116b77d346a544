(** Offline reader for the metrics JSONL artifact, backing the
    [cloud9 report] subcommand. *)

(** Parse a whole dump (blank lines skipped); the error names the
    offending 1-based line. *)
val parse_jsonl : string -> (Metrics.snapshot, string) result

(** Render the summary: per-worker utilization table, solver
    answer-tier breakdown, remaining metrics. *)
val render : Buffer.t -> Metrics.snapshot -> unit

val render_string : Metrics.snapshot -> string

(** Render the profiling view ([cloud9 report --profile]): a p50/p90/p99
    table over every [latency_ns] histogram, the try-lock contention
    probes (hashcons shards, obs core lock), and the most contended
    hashcons shards. *)
val render_profile_string : Metrics.snapshot -> string
