(** A trie over execution-tree paths with subtree counts and uniform
    random-path descent — shared by the searcher core (its path index)
    and the cluster worker (snapshot cache and ban set). *)

type 'a t

val create : unit -> 'a t

(** Number of payloads stored. *)
val size : 'a t -> int

(** Insert (or replace) the payload at a path. *)
val add : 'a t -> Path.t -> 'a -> unit

(** Like {!add}, but returns [true] when a {e new} payload was created
    (replacing an existing one must not inflate ancestor counts). *)
val add_fresh : 'a t -> Path.t -> 'a -> bool

val find : 'a t -> Path.t -> 'a option

(** Returns [true] when a payload was removed. *)
val remove : 'a t -> Path.t -> bool

(** Random-path descent (KLEE's strategy): from the root, choose uniformly
    among the payload here and each nonempty child subtree. *)
val random_pick : Random.State.t -> 'a t -> 'a option

val iter : ('a -> unit) -> 'a t -> unit

(** The payload at the longest prefix of the path that has one, with the
    rest of the path below that prefix. *)
val deepest : 'a t -> Path.t -> ('a * Path.t) option

(** Nodes plus edges of the trie skeleton — the byte size of a preorder
    serialization with one structure byte per node and one per edge. *)
val structure_size : 'a t -> int
