(* Test-case generation: when a path terminates, solving its path
   condition yields concrete bytes for every symbolic input, i.e. a
   regular test that drives the program down that exact path. *)

type t = {
  termination : Errors.termination;
  inputs : (string * string) list; (* input name -> concrete bytes *)
  path : Path.t;
  steps : int;
  pc_size : int; (* number of path constraints *)
}

let bytes_of_model model ids =
  String.init (List.length ids) (fun i ->
      let id = List.nth ids i in
      match Smt.Model.get model id with
      | Some v -> Char.chr (Int64.to_int v land 0xff)
      | None -> '\000')

(* Solve the state's path condition and materialize each named input.
   Returns [None] only if the path condition is unsatisfiable, which
   would indicate an engine bug (every explored path is feasible). *)
let of_state solver (st : 'env State.t) termination =
  match Smt.Solver.check solver st.State.pc with
  | Smt.Solver.Unsat -> None
  | Smt.Solver.Sat model ->
    Some
      {
        termination;
        inputs = List.map (fun (name, ids) -> (name, bytes_of_model model ids)) st.State.sym_inputs;
        path = State.path st;
        steps = st.State.steps;
        pc_size = List.length st.State.pc;
      }

let pp_bytes fmt s =
  String.iter
    (fun c ->
      if c >= ' ' && c < '\127' then Format.fprintf fmt "%c" c
      else Format.fprintf fmt "\\x%02x" (Char.code c))
    s

let pp fmt t =
  Format.fprintf fmt "%s after %d steps, %d constraints@."
    (Errors.termination_to_string t.termination)
    t.steps t.pc_size;
  List.iter (fun (name, bytes) -> Format.fprintf fmt "  %s = \"%a\"@." name pp_bytes bytes) t.inputs
