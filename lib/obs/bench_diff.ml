(* Bench-history regression checking: a structural comparison of two
   BENCH_*.json artifacts (`cloud9 report --diff BASE NEW`).

   The committed artifacts are the canonical perf trajectory; CI diffs
   freshly produced ones against them, so the comparison has to separate
   three kinds of difference:

   - regressions  — a gate flipped ok:true -> ok:false, or a
     deterministic metric moved beyond its tolerance.  Non-zero exit.
   - notes        — structural drift that is not evidence of a
     regression: keys or rows present on one side only (a @quick
     artifact covers fewer tenants/sizes than the canonical full run),
     string changes, and host-dependent timing values.
   - silence      — values equal or within tolerance.

   Two artifacts produced under different "quick" settings are variant
   mismatched: row shapes and budgets legitimately differ, so numeric
   values are reported as notes and only the ok gates are enforced.
   Same-variant artifacts get the numeric rules: keys counting paths,
   errors or tenants must match exactly (the runtimes are exactness-
   gated elsewhere, so any drift is a real behavior change); wall-clock
   and host-shape keys are never compared; parallel runtime counters
   that depend on where real domains are when a steal or a crash lands
   (transfers, steals, recovered jobs, retransmits, recovery replay) are
   notes; everything else
   numeric gets a loose relative tolerance that only gross movement
   breaks. *)

type outcome = { regressions : string list; notes : string list }

let empty = { regressions = []; notes = [] }
let merge a b = { regressions = a.regressions @ b.regressions; notes = a.notes @ b.notes }
let regression msg = { empty with regressions = [ msg ] }
let note msg = { empty with notes = [ msg ] }

(* keys that identify a row inside an array of objects, tried in order *)
let identity_keys = [ "name"; "tenant"; "scenario"; "leg"; "bench"; "ndomains"; "workers"; "domains" ]

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

(* Wall-clock / host-shape keys: never comparable across runs or hosts.
   "crash_tick" is derived from a wall-clock time (the fault-free run's
   length, in coordinator ticks).  "learned"/"deleted" are CDCL
   clause-database sizes — downstream of cache-hit ordering that varies
   run to run, so a 3x swing is normal. *)
let ignored_key k =
  ends_with ~suffix:"_s" k || ends_with ~suffix:"_ms" k || ends_with ~suffix:"_ns" k
  || ends_with ~suffix:"seconds" k || ends_with ~suffix:"per_query" k || k = "crash_tick"
  || k = "host_cores" || k = "learned"
  || k = "deleted"
  || (String.length k >= 7 && String.sub k 0 7 = "speedup" && k <> "speedup_verdict")
  || ends_with ~suffix:"overhead_pct" k

(* Environment-profiling subtrees: lock contention and latency sampling
   measure the host and the scheduler's luck, not the program — every
   numeric value under them is incomparable across runs. *)
let ignored_subtrees = [ "latency_ns"; "hashcons_locks" ]

let in_ignored_subtree path =
  String.split_on_char '.' path
  |> List.exists (fun seg ->
         let seg =
           match String.index_opt seg '[' with Some i -> String.sub seg 0 i | None -> seg
         in
         List.mem seg ignored_subtrees)

(* Deterministic-exact keys: the runtimes carry exactness gates for
   these, so any drift at equal configuration is a behavior change. *)
let exact_key k =
  ends_with ~suffix:"paths" k || ends_with ~suffix:"errors" k || k = "tenants" || k = "tests"

(* Scheduling-dependent keys: on real domains the same run can steal 1
   or 3 jobs, replay 0 or 742 instructions after a crash, and find 6 or
   36 of the victim's jobs orphaned, so a change in them is a note, never
   a regression. *)
let scheduling_key k =
  k = "recovery_replay_instrs" || k = "transfers" || k = "steals" || k = "recovered_jobs"
  || k = "retransmits"

let default_tolerance = 0.5 (* +/-50%: catches collapses, forgives run-to-run noise *)

let render_num = Json.number_to_string

let num_diff ~path k base cur =
  if ignored_key k || in_ignored_subtree path then empty
  else if exact_key k then
    if base = cur then empty
    else
      regression
        (Printf.sprintf "%s: expected %s, got %s (exact key)" path (render_num base)
           (render_num cur))
  else if scheduling_key k then
    if base = cur then empty
    else
      note
        (Printf.sprintf "%s: %s -> %s (scheduling-dependent, not compared)" path
           (render_num base) (render_num cur))
  else
    let denom = Float.max (Float.abs base) 1e-9 in
    let drift = Float.abs (cur -. base) /. denom in
    if drift > default_tolerance then
      regression
        (Printf.sprintf "%s: %s -> %s (%.0f%% drift, tolerance %.0f%%)" path (render_num base)
           (render_num cur) (100.0 *. drift) (100.0 *. default_tolerance))
    else empty

(* The identity of a row in an array of objects, if it has one. *)
let row_identity v =
  List.find_map
    (fun k ->
      match Json.member k v with
      | Some (Json.Str s) -> Some (k, s)
      | Some (Json.Num f) -> Some (k, render_num f)
      | _ -> None)
    identity_keys

let rec diff ~strict ~path base cur =
  match (base, cur) with
  | Json.Obj bf, Json.Obj cf ->
    let acc =
      List.fold_left
        (fun acc (k, bv) ->
          let p = if path = "" then k else path ^ "." ^ k in
          match List.assoc_opt k cf with
          | None -> merge acc (note (Printf.sprintf "%s: only in base artifact" p))
          | Some cv -> merge acc (diff ~strict ~path:p bv cv))
        empty bf
    in
    List.fold_left
      (fun acc (k, _) ->
        if List.mem_assoc k bf then acc
        else
          merge acc
            (note (Printf.sprintf "%s: only in new artifact" (if path = "" then k else path ^ "." ^ k))))
      acc cf
  | Json.Arr bi, Json.Arr ci -> (
    match (bi, ci) with
    | (Json.Obj _ :: _), _ when List.for_all (fun v -> row_identity v <> None) bi ->
      (* arrays of identified rows: match by identity, not position *)
      let ident v = Option.get (row_identity v) in
      let acc =
        List.fold_left
          (fun acc bv ->
            let k, id = ident bv in
            let p = Printf.sprintf "%s[%s=%s]" path k id in
            match List.find_opt (fun cv -> row_identity cv = Some (k, id)) ci with
            | None -> merge acc (note (Printf.sprintf "%s: row only in base artifact" p))
            | Some cv -> merge acc (diff ~strict ~path:p bv cv))
          empty bi
      in
      List.fold_left
        (fun acc cv ->
          match row_identity cv with
          | Some (k, id) when List.exists (fun bv -> row_identity bv = Some (k, id)) bi -> acc
          | Some (k, id) ->
            merge acc
              (note (Printf.sprintf "%s[%s=%s]: row only in new artifact" path k id))
          | None -> acc)
        acc ci
    | _ when List.length bi = List.length ci ->
      List.fold_left2
        (fun acc i (bv, cv) ->
          merge acc (diff ~strict ~path:(Printf.sprintf "%s[%d]" path i) bv cv))
        empty
        (List.init (List.length bi) Fun.id)
        (List.combine bi ci)
    | _ ->
      note
        (Printf.sprintf "%s: array length %d -> %d (not comparable positionally)" path
           (List.length bi) (List.length ci)))
  | Json.Bool b, Json.Bool c ->
    (* ok gates are enforced even across variants; true -> false is the
       one boolean regression, recovery is good news *)
    if b = c then empty
    else if b && not c then regression (Printf.sprintf "%s: gate flipped true -> false" path)
    else note (Printf.sprintf "%s: flipped false -> true" path)
  | Json.Num b, Json.Num c ->
    if strict then
      let key =
        match String.rindex_opt path '.' with
        | Some i -> String.sub path (i + 1) (String.length path - i - 1)
        | None -> path
      in
      (* strip a [idx] suffix so positional array elements inherit the
         parent key's comparison class *)
      let key = match String.index_opt key '[' with Some i -> String.sub key 0 i | None -> key in
      num_diff ~path key b c
    else if b <> c then
      note (Printf.sprintf "%s: %s -> %s (variant mismatch, not compared)" path (render_num b)
              (render_num c))
    else empty
  | Json.Str b, Json.Str c ->
    if b = c then empty else note (Printf.sprintf "%s: %S -> %S" path b c)
  | Json.Null, Json.Null -> empty
  | _ -> regression (Printf.sprintf "%s: type changed" path)

let same_variant base cur =
  match (Json.member "quick" base, Json.member "quick" cur) with
  | Some (Json.Bool b), Some (Json.Bool c) -> b = c
  | None, None -> true
  | _ -> false

(* Compare two artifacts.  [strict] forces full numeric comparison even
   across variants (the bench's seeded-regression self-test uses it
   implicitly by comparing same-variant documents). *)
let compare ?strict base cur =
  let strict = match strict with Some s -> s | None -> same_variant base cur in
  diff ~strict ~path:"" base cur

let render o =
  let buf = Buffer.create 256 in
  List.iter (fun m -> Buffer.add_string buf ("REGRESSION " ^ m ^ "\n")) o.regressions;
  List.iter (fun m -> Buffer.add_string buf ("note       " ^ m ^ "\n")) o.notes;
  Buffer.add_string buf
    (Printf.sprintf "%d regression(s), %d note(s)\n" (List.length o.regressions)
       (List.length o.notes));
  Buffer.contents buf

let ok o = o.regressions = []
