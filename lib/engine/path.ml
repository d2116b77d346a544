(* Path encoding: the sequence of nondeterministic choices that leads from
   the execution-tree root to a node.  This is the currency of Cloud9's
   job transfer (paper section 3.2): a candidate node is shipped to
   another worker as its root path and "replayed" there.

   A choice records which successor was taken at a fork point:
   - [Branch b]: a symbolic conditional branch (or a checked operation such
     as division-by-zero, encoded as the "no fault" branch being [true]);
   - [Sched i]: the i-th runnable thread was scheduled;
   - [Sys i]: the i-th variant of a forking system call (fault injection,
     packet fragmentation, symbolic ioctls, ...). *)

type choice = Branch of bool | Sched of int | Sys of int

(* Root-first list of choices. *)
type t = choice list

let choice_to_string = function
  | Branch true -> "T"
  | Branch false -> "F"
  | Sched i -> Printf.sprintf "s%d" i
  | Sys i -> Printf.sprintf "y%d" i

let to_string p = String.concat "" (List.map choice_to_string p)

(* Inverse of [to_string]: the compact form is self-delimiting ('T'/'F'
   are single choices; 's'/'y' are followed by a decimal index), so a
   single left-to-right scan suffices.  This is the parsing half of the
   job/snapshot wire format: campaign checkpoints persist frontier nodes
   as these strings and restore must replay them exactly. *)
let of_string s =
  let n = String.length s in
  let rec digits i = if i < n && s.[i] >= '0' && s.[i] <= '9' then digits (i + 1) else i in
  let rec go i acc =
    if i >= n then Ok (List.rev acc)
    else
      match s.[i] with
      | 'T' -> go (i + 1) (Branch true :: acc)
      | 'F' -> go (i + 1) (Branch false :: acc)
      | ('s' | 'y') as c -> (
        let stop = digits (i + 1) in
        let index = String.sub s (i + 1) (stop - i - 1) in
        (* only the canonical decimal, so what decodes re-encodes to the
           same bytes: no empty index, no leading zero, no overflow *)
        match int_of_string_opt index with
        | Some k when string_of_int k = index ->
          go stop ((if c = 's' then Sched k else Sys k) :: acc)
        | _ -> Error (Printf.sprintf "path %S: bad index %S at %d" s index (i + 1)))
      | c -> Error (Printf.sprintf "path %S: unexpected %C at %d" s c i)
  in
  go 0 []

let compare_choice (a : choice) (b : choice) = compare a b

let compare (a : t) (b : t) = compare a b

(* [is_prefix p q] holds when [p] is a prefix of [q]. *)
let rec is_prefix p q =
  match (p, q) with
  | [], _ -> true
  | _, [] -> false
  | c1 :: p', c2 :: q' -> c1 = c2 && is_prefix p' q'

let length = List.length

(* Number of choices shared at the front of two paths. *)
let rec common_prefix_len p q =
  match (p, q) with
  | c1 :: p', c2 :: q' when c1 = c2 -> 1 + common_prefix_len p' q'
  | _ -> 0

(* Serialized size in bytes of a path when encoded one byte per choice
   (used by the transfer-encoding ablation bench). *)
let encoded_size p = List.length p

(* Longest common prefix of two paths, root-first. *)
let rec common_prefix p q =
  match (p, q) with
  | c1 :: p', c2 :: q' when c1 = c2 -> c1 :: common_prefix p' q'
  | _ -> []

(* [strip_prefix pre p]: the suffix of [p] after [pre]; [None] when [pre]
   is not actually a prefix of [p]. *)
let rec strip_prefix pre p =
  match (pre, p) with
  | [], rest -> Some rest
  | c1 :: pre', c2 :: p' when c1 = c2 -> strip_prefix pre' p'
  | _ -> None

(* Factor a batch of paths into the longest common prefix of ALL of them
   plus per-path suffixes, order-preserving:
     factor [p1; ...; pN] = (prefix, [s1; ...; sN])
   with pi = prefix @ si for every i.  The empty batch factors as
   ([], []); a singleton factors as (p, [[]]) — the whole path is the
   prefix and the suffix is empty. *)
let factor = function
  | [] -> ([], [])
  | [ p ] -> (p, [ [] ])
  | first :: rest ->
    let prefix = List.fold_left common_prefix first rest in
    let suffixes =
      List.map
        (fun p ->
          match strip_prefix prefix p with
          | Some s -> s
          | None -> assert false (* prefix is a common prefix by construction *))
        (first :: rest)
    in
    (prefix, suffixes)

(* Batch codec: prefix and suffixes in the self-delimiting compact form,
   '|'-separated ("prefix|s1|s2|...|sN").  '|' never appears inside
   [to_string] output, so the split is unambiguous; an empty suffix
   (the prefix node itself is in the batch) encodes as an empty field.
   This string is what the Jobs wire message carries under prefix
   handoff: both cluster backends ship it through Cluster.Transport and
   the receiver decodes and replays the prefix once. *)
let encode_batch (prefix, suffixes) =
  String.concat "|" (to_string prefix :: List.map to_string suffixes)

let decode_batch s =
  match String.split_on_char '|' s with
  | [] | [ _ ] -> Error (Printf.sprintf "batch %S: missing suffix fields" s)
  | pre :: sufs -> (
    match of_string pre with
    | Error e -> Error e
    | Ok prefix ->
      let rec go acc = function
        | [] -> Ok (prefix, List.rev acc)
        | x :: rest -> (
          match of_string x with
          | Error e -> Error e
          | Ok suf -> go (suf :: acc) rest)
      in
      go [] sufs)

(* Re-expand a factored batch to full root paths, order-preserving. *)
let expand (prefix, suffixes) = List.map (fun s -> prefix @ s) suffixes

(* Analytic replay bound for a factored batch: the shared prefix is
   replayed once, each suffix once on top of it.  In choice-steps; the
   instruction-level cost is proportional when every choice costs the
   same number of instructions (exact for the straight-line targets the
   codec property tests use). *)
let replay_bound (prefix, suffixes) =
  List.fold_left (fun acc s -> acc + List.length s) (List.length prefix) suffixes
