(** CVM programs: named functions of basic blocks, plus named globals.
    [nlines] is the source-line count that defines coverage bit-vector
    length. *)

type func = {
  name : string;
  nparams : int;  (** parameters arrive in registers [0 .. nparams-1] *)
  nregs : int;
  frame_size : int;  (** bytes of address-taken locals; 0 if none *)
  blocks : Instr.t array array;
}

type global = { gname : string; bytes : string; gwritable : bool }

type t = {
  funcs : (string * func) list;
  globals : global list;
  entry : string;
  nlines : int;
  resolved : (string * func) list option Atomic.t;  (** internal: use {!resolved} *)
}

exception Invalid of string

(** Build and structurally validate a program.
    @raise Invalid on malformed programs (unterminated blocks, bad targets,
    out-of-range registers, unknown callees/globals, arity mismatches). *)
val create :
  entry:string -> funcs:(string * func) list -> globals:global list -> nlines:int -> t

(** [funcs] with every [Imm] and [Glob] operand replaced by its interned
    [Const], globals placed by [global_addr].  Computed at the first call
    and shared by every later one, so [global_addr] must be a function of
    the program alone. *)
val resolved : t -> global_addr:(string -> int) -> (string * func) list

(** Re-run structural validation; returns the program unchanged. *)
val validate : t -> t

val func : t -> string -> func option

(** @raise Invalid when the function is missing. *)
val func_exn : t -> string -> func

(** Total static instruction count (the "size" column of Table 4). *)
val instruction_count : t -> int

(** Sorted list of source lines that carry at least one instruction — the
    denominator of line coverage. *)
val covered_lines : t -> int list

val pp : Format.formatter -> t -> unit
