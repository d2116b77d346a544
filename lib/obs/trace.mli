(** Tick-stamped trace events in a bounded ring buffer. *)

type record = { r_tick : int; r_worker : int; r_event : Event.t }

type t

val create : ?capacity:int -> unit -> t

val capacity : t -> int

(** Total records ever appended (including overwritten ones). *)
val appended : t -> int

(** Records lost to ring overwriting. *)
val dropped : t -> int

val record : t -> tick:int -> worker:int -> Event.t -> unit

(** Buffered records, oldest first. *)
val contents : t -> record list

val iter : (record -> unit) -> t -> unit
