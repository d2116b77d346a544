(** The CVM instruction set: a register-based bytecode in the spirit of the
    LLVM subset KLEE interprets.  Every instruction carries the source line
    it was compiled from; coverage bit vectors index these lines. *)

type reg = int

type operand =
  | Reg of reg
  | Imm of { width : int; value : int64 }
  | Glob of string  (** address of a named global, resolved at state setup *)
  | Const of Smt.Expr.t
      (** an interned constant: what the engine resolves [Imm] and [Glob]
          operands to, once per program; the compiler never emits it *)

type cast_kind = Zext | Sext | Trunc

type op =
  | Binop of { dst : reg; op : Smt.Expr.binop; a : operand; b : operand }
  | Unop of { dst : reg; op : Smt.Expr.unop; a : operand }
  | Cast of { dst : reg; kind : cast_kind; a : operand; width : int }
  | Select of { dst : reg; cond : operand; a : operand; b : operand }
  | Mov of { dst : reg; a : operand }
  | Frame of { dst : reg; off : int }
      (** [dst := frame base + off]; the engine allocates a frame object of
          [frame_size] bytes per call for address-taken locals *)
  | Load of { dst : reg; addr : operand; len : int }  (** [len] bytes, little-endian *)
  | Store of { addr : operand; value : operand }
  | Alloc of { dst : reg; size : operand }
  | Free of { addr : operand }
  | Jmp of int
  | Br of { cond : operand; then_ : int; else_ : int }
  | Call of { dst : reg option; func : string; args : operand list }
  | Ret of operand option
  | Halt of operand  (** terminate the whole process tree with an exit code *)
  | Syscall of { dst : reg; num : int; args : operand list }
  | Assert of { cond : operand; msg : string }

type t = { op : op; line : int }

val make : line:int -> op -> t

(** True for [Jmp], [Br], [Ret], and [Halt] — the only ops allowed (and
    required) at the end of a basic block. *)
val is_terminator : t -> bool

(** Rewrite every operand of an instruction. *)
val map_operands : (operand -> operand) -> op -> op

val pp_operand : Format.formatter -> operand -> unit
val pp : Format.formatter -> t -> unit
