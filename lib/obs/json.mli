(** Minimal JSON writer/parser backing the observability exporters, the
    [cloud9 report] reader, and the artifact-validating tests.  Not a
    general-purpose JSON library: strings round-trip ASCII only. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val write : Buffer.t -> t -> unit
val to_string : t -> string

(** Exact round-trip rendering of a finite float: integers print plainly,
    everything else as the shortest decimal that parses back to the
    identical double (never lossy, unlike the [%g] this replaced). *)
val number_to_string : float -> string

exception Malformed of string

(** @raise Malformed on syntax errors. *)
val parse_exn : string -> t

val parse : string -> (t, string) result

val member : string -> t -> t option
val to_float : t -> float option
val to_str : t -> string option
val to_list : t -> t list option
