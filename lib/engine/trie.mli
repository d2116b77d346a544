(** A trie over execution-tree paths with subtree counts and uniform
    random-path descent — shared by the random-path searcher (alive-state
    population) and the cluster worker (frontier/fence containers). *)

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
val fold : ('a -> 'b -> 'b) -> 'a t -> 'b -> 'b

(** [iter_rev] visits the payloads in exactly the reverse of {!iter}'s
    order — the order of the list [fold (fun x l -> x :: l) t []] —
    without building it; [find_rev p t] is the first payload in that
    order satisfying [p]. *)
val iter_rev : ('a -> unit) -> 'a t -> unit
val find_rev : ('a -> bool) -> 'a t -> 'a option

(** Nodes plus edges of the trie skeleton — the byte size of a preorder
    serialization with one structure byte per node and one per edge. *)
val structure_size : 'a t -> int
