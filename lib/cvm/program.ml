(* CVM programs: named functions of basic blocks, plus named globals.

   A program also records [nlines], the number of distinct source lines,
   which defines the length of coverage bit vectors. *)

type func = {
  name : string;
  nparams : int;  (* parameters arrive in registers 0 .. nparams-1 *)
  nregs : int;
  frame_size : int; (* bytes of address-taken locals; 0 if none *)
  blocks : Instr.t array array;
}

type global = {
  gname : string;
  bytes : string;        (* initial concrete contents *)
  gwritable : bool;
}

type t = {
  funcs : (string * func) list;
  globals : global list;
  entry : string;
  nlines : int;
  resolved : (string * func) list option Atomic.t;
  (* [funcs] with every [Imm] and [Glob] operand replaced by its interned
     [Const]; filled by the first [resolved] call *)
}

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let func t name = List.assoc_opt name t.funcs

let func_exn t name =
  match func t name with
  | Some f -> f
  | None -> invalid "unknown function %s" name

(* Structural validation: entry exists, blocks are terminated exactly at
   the end, targets and registers are in range, called functions exist. *)
let validate t =
  if func t t.entry = None then invalid "entry function %s missing" t.entry;
  List.iter
    (fun (name, f) ->
      if name <> f.name then invalid "function list key %s <> name %s" name f.name;
      if Array.length f.blocks = 0 then invalid "%s: no blocks" name;
      if f.nparams > f.nregs then invalid "%s: more params than registers" name;
      Array.iteri
        (fun bi block ->
          let n = Array.length block in
          if n = 0 then invalid "%s.%d: empty block" name bi;
          Array.iteri
            (fun ii i ->
              let is_last = ii = n - 1 in
              if Instr.is_terminator i && not is_last then
                invalid "%s.%d.%d: terminator before end of block" name bi ii;
              if is_last && not (Instr.is_terminator i) then
                invalid "%s.%d: block does not end in a terminator" name bi;
              let check_reg r =
                if r < 0 || r >= f.nregs then invalid "%s.%d.%d: register r%d out of range" name bi ii r
              in
              let check_operand = function
                | Instr.Reg r -> check_reg r
                | Instr.Imm { width; _ } ->
                  if width < 1 || width > 64 then invalid "%s.%d.%d: bad imm width" name bi ii
                | Instr.Glob g ->
                  if not (List.exists (fun gl -> gl.gname = g) t.globals) then
                    invalid "%s.%d.%d: unknown global %s" name bi ii g
                | Instr.Const _ -> ()
              in
              let check_target l =
                if l < 0 || l >= Array.length f.blocks then
                  invalid "%s.%d.%d: jump target .%d out of range" name bi ii l
              in
              match i.Instr.op with
              | Instr.Binop { dst; a; b; _ } ->
                check_reg dst;
                check_operand a;
                check_operand b
              | Instr.Unop { dst; a; _ } | Instr.Cast { dst; a; _ } ->
                check_reg dst;
                check_operand a
              | Instr.Select { dst; cond; a; b } ->
                check_reg dst;
                check_operand cond;
                check_operand a;
                check_operand b
              | Instr.Mov { dst; a } ->
                check_reg dst;
                check_operand a
              | Instr.Frame { dst; off } ->
                check_reg dst;
                if off < 0 || off >= max f.frame_size 1 then
                  invalid "%s.%d.%d: frame offset %d out of range" name bi ii off
              | Instr.Load { dst; addr; len } ->
                check_reg dst;
                check_operand addr;
                if len < 1 || len > 8 then invalid "%s.%d.%d: load width" name bi ii
              | Instr.Store { addr; value } ->
                check_operand addr;
                check_operand value
              | Instr.Alloc { dst; size } ->
                check_reg dst;
                check_operand size
              | Instr.Free { addr } -> check_operand addr
              | Instr.Jmp l -> check_target l
              | Instr.Br { cond; then_; else_ } ->
                check_operand cond;
                check_target then_;
                check_target else_
              | Instr.Call { dst; func = callee; args } ->
                Option.iter check_reg dst;
                List.iter check_operand args;
                (match List.assoc_opt callee t.funcs with
                | None -> invalid "%s.%d.%d: call to unknown function %s" name bi ii callee
                | Some cf ->
                  if List.length args <> cf.nparams then
                    invalid "%s.%d.%d: %s expects %d args, got %d" name bi ii callee
                      cf.nparams (List.length args))
              | Instr.Ret a -> Option.iter check_operand a
              | Instr.Halt a -> check_operand a
              | Instr.Syscall { dst; args; _ } ->
                check_reg dst;
                List.iter check_operand args
              | Instr.Assert { cond; _ } -> check_operand cond)
            block)
        f.blocks)
    t.funcs;
  t

let create ~entry ~funcs ~globals ~nlines =
  validate { funcs; globals; entry; nlines; resolved = Atomic.make None }

(* Racing domains may both resolve; the first published copy wins, so every
   state of a program shares one set of function records. *)
let resolved t ~global_addr =
  match Atomic.get t.resolved with
  | Some funcs -> funcs
  | None ->
    let operand = function
      | Instr.Imm { width; value } -> Instr.Const (Smt.Expr.const ~width value)
      | Instr.Glob g -> Instr.Const (Smt.Expr.const ~width:64 (Int64.of_int (global_addr g)))
      | (Instr.Reg _ | Instr.Const _) as o -> o
    in
    let instr i = { i with Instr.op = Instr.map_operands operand i.Instr.op } in
    let funcs =
      List.map (fun (name, f) -> (name, { f with blocks = Array.map (Array.map instr) f.blocks })) t.funcs
    in
    ignore (Atomic.compare_and_set t.resolved None (Some funcs));
    Option.get (Atomic.get t.resolved)

let instruction_count t =
  List.fold_left
    (fun acc (_, f) -> acc + Array.fold_left (fun a b -> a + Array.length b) 0 f.blocks)
    0 t.funcs

(* Lines that carry at least one instruction: the denominator of line
   coverage.  (Declarations and blank lines never appear.) *)
let covered_lines t =
  let module Iset = Set.Make (Int) in
  let lines = ref Iset.empty in
  List.iter
    (fun (_, f) ->
      Array.iter
        (fun block -> Array.iter (fun i -> lines := Iset.add i.Instr.line !lines) block)
        f.blocks)
    t.funcs;
  Iset.elements !lines

let pp fmt t =
  Format.fprintf fmt "program (entry %s, %d lines)@." t.entry t.nlines;
  List.iter (fun g -> Format.fprintf fmt "global %s[%d]@." g.gname (String.length g.bytes)) t.globals;
  List.iter
    (fun (name, f) ->
      Format.fprintf fmt "func %s(%d) regs=%d@." name f.nparams f.nregs;
      Array.iteri
        (fun bi block ->
          Format.fprintf fmt ".%d:@." bi;
          Array.iter (fun i -> Format.fprintf fmt "  %a@." Instr.pp i) block)
        f.blocks)
    t.funcs
