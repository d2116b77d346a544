(* Exploration jobs and their transfer encoding.

   A job is a candidate node to explore, encoded as the path from the
   execution-tree root to that node (paper section 3.2: the alternative —
   serializing the multi-megabyte program state — trades bandwidth for the
   destination's replay CPU; Cloud9 chooses paths because commodity
   clusters have abundant CPU and meager bisection bandwidth).

   When several jobs travel together their paths are aggregated into a
   *job tree*, sharing common prefixes.  [tree_encoded_size] measures the
   wire size of that encoding (one byte per edge plus one per leaf marker),
   which the transfer-encoding ablation bench compares against naive
   per-path encoding and against simulated state serialization. *)

module Path = Engine.Path
module Trie = Engine.Trie

type t = Path.t (* root-first choice list *)

(* Wire size of jobs encoded independently: one length byte plus one byte
   per choice. *)
let naive_encoded_size jobs =
  List.fold_left (fun acc j -> acc + 1 + Path.encoded_size j) 0 jobs

(* Wire size after aggregating into a prefix-sharing job tree, serialized
   preorder: one structure byte per node (child count + job-leaf flag)
   plus one byte per edge (the choice).  Sharing wins as soon as jobs have
   substantial common prefixes, which transferred sibling candidates
   always do. *)
let tree_encoded_size jobs =
  let trie = Trie.create () in
  List.iter (fun j -> Trie.add trie j ()) jobs;
  Trie.structure_size trie

(* Simulated size of serializing the program state instead of the path:
   the paper quotes "at least several megabytes" for real programs; our
   miniatures are smaller, so we model it as a fixed header plus the
   state's live memory footprint. *)
let state_encoded_size ~memory_bytes = 256 + memory_bytes

(* Prefix handoff: the unit of transfer is no longer N independent root
   paths but their longest common prefix plus per-job suffixes.  The
   thief replays the prefix once and forks each suffix from the cached
   prefix state, so replay cost drops from O(N·depth) to
   O(depth + Σ|suffix|).  Both cluster backends ship the same compact
   string codec through Cluster.Transport, which keeps the simulated
   driver and the real-domain runtime bit-identical on counts: leases,
   bans and digests still account in full root paths ([expand]). *)
type batch = { prefix : Path.t; suffixes : Path.t list }

let batch_of_jobs jobs =
  let prefix, suffixes = Path.factor jobs in
  { prefix; suffixes }

let jobs_of_batch { prefix; suffixes } = Path.expand (prefix, suffixes)
let batch_size { suffixes; _ } = List.length suffixes
let encode_batch { prefix; suffixes } = Path.encode_batch (prefix, suffixes)

let decode_batch s =
  match Path.decode_batch s with
  | Ok (prefix, suffixes) -> Ok { prefix; suffixes }
  | Error _ as e -> e
