(* The CVM instruction set: a register-based bytecode in the spirit of the
   LLVM subset KLEE interprets.  Functions are arrays of basic blocks; each
   block ends in exactly one terminator.  Every instruction carries the
   source line it was compiled from, which is what coverage bit vectors
   index (paper section 3.3). *)

type reg = int

type operand =
  | Reg of reg
  | Imm of { width : int; value : int64 }
  | Glob of string (* address of a named global, resolved at state setup *)
  | Const of Smt.Expr.t
  (* an interned constant: what the engine resolves [Imm] and [Glob] to,
     once per program; the compiler never emits it *)

type cast_kind = Zext | Sext | Trunc

type op =
  (* computation *)
  | Binop of { dst : reg; op : Smt.Expr.binop; a : operand; b : operand }
  | Unop of { dst : reg; op : Smt.Expr.unop; a : operand }
  | Cast of { dst : reg; kind : cast_kind; a : operand; width : int }
  | Select of { dst : reg; cond : operand; a : operand; b : operand }
  | Mov of { dst : reg; a : operand }
  | Frame of { dst : reg; off : int } (* dst := frame base + off *)
  (* memory *)
  | Load of { dst : reg; addr : operand; len : int }   (* len bytes, little-endian *)
  | Store of { addr : operand; value : operand }
  | Alloc of { dst : reg; size : operand }             (* heap allocation *)
  | Free of { addr : operand }
  (* control flow (terminators) *)
  | Jmp of int
  | Br of { cond : operand; then_ : int; else_ : int }
  | Call of { dst : reg option; func : string; args : operand list }
  | Ret of operand option
  | Halt of operand (* exit code *)
  (* environment *)
  | Syscall of { dst : reg; num : int; args : operand list }
  | Assert of { cond : operand; msg : string }

type t = { op : op; line : int }

let make ~line op = { op; line }

(* [Call] is not a terminator: it transfers control to the callee and
   resumes at the next instruction of the same block. *)
let is_terminator i =
  match i.op with
  | Jmp _ | Br _ | Ret _ | Halt _ -> true
  | Binop _ | Unop _ | Cast _ | Select _ | Mov _ | Frame _ | Load _ | Store _ | Alloc _
  | Free _ | Call _ | Syscall _ | Assert _ ->
    false

let map_operands f = function
  | Binop b -> Binop { b with a = f b.a; b = f b.b }
  | Unop u -> Unop { u with a = f u.a }
  | Cast c -> Cast { c with a = f c.a }
  | Select s -> Select { s with cond = f s.cond; a = f s.a; b = f s.b }
  | Mov m -> Mov { m with a = f m.a }
  | Load l -> Load { l with addr = f l.addr }
  | Store s -> Store { addr = f s.addr; value = f s.value }
  | Alloc a -> Alloc { a with size = f a.size }
  | Free { addr } -> Free { addr = f addr }
  | Br b -> Br { b with cond = f b.cond }
  | Call c -> Call { c with args = List.map f c.args }
  | Ret a -> Ret (Option.map f a)
  | Halt a -> Halt (f a)
  | Syscall s -> Syscall { s with args = List.map f s.args }
  | Assert a -> Assert { a with cond = f a.cond }
  | (Frame _ | Jmp _) as op -> op

let pp_operand fmt = function
  | Reg r -> Format.fprintf fmt "r%d" r
  | Imm { width; value } -> Format.fprintf fmt "%Lu:%d" value width
  | Glob name -> Format.fprintf fmt "@%s" name
  | Const e -> Smt.Expr.pp fmt e

let cast_name = function Zext -> "zext" | Sext -> "sext" | Trunc -> "trunc"

let pp fmt i =
  (match i.op with
  | Binop { dst; op; a; b } ->
    Format.fprintf fmt "r%d = %s %a, %a" dst (Smt.Expr.binop_name op) pp_operand a
      pp_operand b
  | Unop { dst; op; a } ->
    Format.fprintf fmt "r%d = %s %a" dst (Smt.Expr.unop_name op) pp_operand a
  | Cast { dst; kind; a; width } ->
    Format.fprintf fmt "r%d = %s %a to %d" dst (cast_name kind) pp_operand a width
  | Select { dst; cond; a; b } ->
    Format.fprintf fmt "r%d = select %a, %a, %a" dst pp_operand cond pp_operand a
      pp_operand b
  | Mov { dst; a } -> Format.fprintf fmt "r%d = %a" dst pp_operand a
  | Frame { dst; off } -> Format.fprintf fmt "r%d = frame+%d" dst off
  | Load { dst; addr; len } -> Format.fprintf fmt "r%d = load %a, %d" dst pp_operand addr len
  | Store { addr; value } -> Format.fprintf fmt "store %a, %a" pp_operand addr pp_operand value
  | Alloc { dst; size } -> Format.fprintf fmt "r%d = alloc %a" dst pp_operand size
  | Free { addr } -> Format.fprintf fmt "free %a" pp_operand addr
  | Jmp l -> Format.fprintf fmt "jmp .%d" l
  | Br { cond; then_; else_ } ->
    Format.fprintf fmt "br %a, .%d, .%d" pp_operand cond then_ else_
  | Call { dst; func; args } ->
    (match dst with
    | Some d -> Format.fprintf fmt "r%d = call %s(" d func
    | None -> Format.fprintf fmt "call %s(" func);
    List.iteri
      (fun k a -> Format.fprintf fmt "%s%a" (if k > 0 then ", " else "") pp_operand a)
      args;
    Format.fprintf fmt ")"
  | Ret None -> Format.fprintf fmt "ret"
  | Ret (Some a) -> Format.fprintf fmt "ret %a" pp_operand a
  | Halt a -> Format.fprintf fmt "halt %a" pp_operand a
  | Syscall { dst; num; args } ->
    Format.fprintf fmt "r%d = syscall %d(" dst num;
    List.iteri
      (fun k a -> Format.fprintf fmt "%s%a" (if k > 0 then ", " else "") pp_operand a)
      args;
    Format.fprintf fmt ")"
  | Assert { cond; msg } -> Format.fprintf fmt "assert %a, %S" pp_operand cond msg);
  Format.fprintf fmt "  ; line %d" i.line
