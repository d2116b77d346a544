(** Line-coverage bit vectors, the one place their format lives: bit
    [l mod 8] of byte [l / 8] marks source line [l] covered.  An
    engine's vector, the balancer's global overlay, a frontier export and
    a campaign's cumulative union are all this format. *)

(** A vector with room for lines [0 .. nlines]. *)
val create : nlines:int -> Bytes.t

val mem : Bytes.t -> int -> bool

(** Mark a line covered; [true] if it was not yet. *)
val add : Bytes.t -> int -> bool

(** The number of lines a vector marks covered. *)
val popcount : Bytes.t -> int

(** [union_into acc v] ORs [v] into [acc] in place and returns [acc];
    when [v] is longer, [acc] is first copied into a zero-padded vector
    of [v]'s length, which is returned instead. *)
val union_into : Bytes.t -> Bytes.t -> Bytes.t

(** [covered / coverable]; a program with no coverable line is fully
    covered (1.0). *)
val fraction : coverable:int -> int -> float
