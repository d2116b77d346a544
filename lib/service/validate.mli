(** Validation shared by the CLI ([cloud9 serve], [--max-steps],
    [--parallel]) and the daemon's control plane.  [flag] names the
    offending knob in the error message. *)

val positive_int : flag:string -> int -> (int, string) result
val non_negative_int : flag:string -> int -> (int, string) result

(** Most domains a run may ask for: OCaml 5.1 allows 128 domains per
    process, and the main domain is one of them. *)
val max_domains : int

(** A domain count in [1, max_domains]. *)
val domains : flag:string -> int -> (int, string) result

(** The one integer decoder for JSON from outside the process (snapshots,
    control lines): a number that is integer-valued and inside OCaml's
    [int] range.  Never truncates; [2.5], [1e19], [nan] are errors. *)
val int_of_json : flag:string -> Obs.Json.t -> (int, string) result

(** Non-empty, no whitespace/control characters (snapshot- and
    JSONL-safe). *)
val name : flag:string -> string -> (string, string) result

val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result
