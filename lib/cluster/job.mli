(** Exploration jobs and their transfer encoding (paper section 3.2):
    a job is a candidate node encoded as its root path; batches aggregate
    into a prefix-sharing job tree. *)

type t = Engine.Path.t

(** Wire size of jobs encoded independently (one length byte plus one byte
    per choice). *)
val naive_encoded_size : t list -> int

(** Wire size of the batch as a preorder-serialized job tree: one
    structure byte per node plus one byte per edge.  Wins once jobs share
    substantial prefixes, which transferred sibling candidates always do. *)
val tree_encoded_size : t list -> int

(** Simulated size of shipping the serialized program state instead of
    the path (the alternative the paper rejects for bandwidth reasons). *)
val state_encoded_size : memory_bytes:int -> int

(** A factored transfer batch: the longest common prefix of the jobs
    plus per-job suffixes.  The thief replays [prefix] once and forks
    each suffix from the cached prefix state — O(depth + Σ|suffix|)
    instead of O(N·depth).  Leases/bans/digests still account in full
    root paths via {!jobs_of_batch}. *)
type batch = { prefix : Engine.Path.t; suffixes : Engine.Path.t list }

val batch_of_jobs : t list -> batch

(** Order-preserving re-expansion to full root paths. *)
val jobs_of_batch : batch -> t list

val batch_size : batch -> int

(** Compact wire form (["prefix|s1|...|sN"]) shared by both cluster
    backends through [Cluster.Transport]. *)
val encode_batch : batch -> string

val decode_batch : string -> (batch, string) result
