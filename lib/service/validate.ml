(* Shared validation for the knobs that cross a trust boundary: CLI flags
   (bin/cloud9.ml wires these through Cmdliner's [term_result]) and
   control-plane submissions (the daemon re-validates every field of a
   submitted campaign).  Keeping them here — not inline in the binary —
   lets the unit tests exercise the exact rejections the CLI produces. *)

let positive_int ~flag v =
  if v > 0 then Ok v
  else Error (Printf.sprintf "%s must be strictly positive (got %d)" flag v)

let non_negative_int ~flag v =
  if v >= 0 then Ok v else Error (Printf.sprintf "%s must be non-negative (got %d)" flag v)

(* OCaml 5.1 caps a process at 128 domains, the main one included; past
   that [Domain.spawn] fails, so a larger count must never reach a pool. *)
let max_domains = 127

let domains ~flag v =
  if v >= 1 && v <= max_domains then Ok v
  else Error (Printf.sprintf "%s must be between 1 and %d (got %d)" flag max_domains v)

(* [min_int] is a power of two, so it and its negation are exact floats:
   the integers of [int] are exactly the integer-valued floats in
   [min_int, -min_int). *)
let int_of_json ~flag = function
  | Obs.Json.Num f
    when Float.is_integer f && f >= Float.of_int min_int && f < -.Float.of_int min_int ->
    Ok (int_of_float f)
  | Obs.Json.Num f ->
    Error (Printf.sprintf "field %S: expected an integer (got %s)" flag (Obs.Json.number_to_string f))
  | _ -> Error (Printf.sprintf "field %S: expected an integer" flag)

(* A campaign/registry name fit for snapshots, events and file names:
   non-empty, and no whitespace or JSONL-hostile control characters. *)
let name ~flag s =
  if s = "" then Error (Printf.sprintf "%s must not be empty" flag)
  else if
    String.exists (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '\r' || Char.code c < 0x20) s
  then Error (Printf.sprintf "%s must not contain whitespace or control characters" flag)
  else Ok s

(* Applicative-ish chaining for validating a record field by field. *)
let ( let* ) r f = Result.bind r f
