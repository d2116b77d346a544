(* The versioned on-disk snapshot codec for the campaign service.

   One JSON document holds the whole daemon state: the scheduler
   rotation and, per campaign, its spec, status, cumulative counters,
   the checkpointed exploration frontier (job-tree path encodings via
   {!Engine.Path.to_string}/[of_string]), the ban set, and the union
   coverage vector (hex).  The lease-ledger state needs no fields of its
   own: checkpoints are only taken at drained barriers, where no lease
   is in flight and no orphan is parked — what survives of the ledger is
   exactly the ban set and the counters already credited, both of which
   are here.

   Writes are atomic: the document goes to [path ^ ".tmp"] and is
   renamed over the target, so a daemon killed mid-checkpoint leaves the
   previous snapshot intact.  [save] takes each campaign already encoded
   ([campaign_fragment]), so a writer can keep the fragments of campaigns
   that did not change since its last checkpoint.  [version] gates
   restores: a snapshot from a different codec version is refused rather
   than misread. *)

module J = Obs.Json
module Path = Engine.Path
open Validate

let version = 1

(* --- helpers ---------------------------------------------------------- *)

let hex_of_bytes b =
  let buf = Buffer.create (2 * Bytes.length b) in
  Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) b;
  Buffer.contents buf

let bytes_of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then Error "odd-length hex string"
  else
    let b = Bytes.create (n / 2) in
    let rec go i =
      if i >= n / 2 then Ok b
      else
        match int_of_string_opt ("0x" ^ String.sub s (2 * i) 2) with
        | Some v -> Bytes.set b i (Char.chr v); go (i + 1)
        | None -> Error (Printf.sprintf "bad hex byte at %d" (2 * i))
    in
    go 0

let field name v = Option.to_result ~none:(Printf.sprintf "missing field %S" name) (J.member name v)
let str name v = field name v |> fun r -> Result.bind r (fun x -> Option.to_result ~none:(Printf.sprintf "field %S: expected string" name) (J.to_str x))
let int_field name v = Result.bind (field name v) (int_of_json ~flag:name)

let opt_str name v =
  match J.member name v with
  | None | Some J.Null -> Ok None
  | Some (J.Str s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S: expected string or null" name)

let path_list name v =
  let* l =
    field name v |> fun r ->
    Result.bind r (fun x ->
        Option.to_result ~none:(Printf.sprintf "field %S: expected array" name) (J.to_list x))
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | J.Str s :: rest -> (
      match Path.of_string s with Ok p -> go (p :: acc) rest | Error e -> Error e)
    | _ -> Error (Printf.sprintf "field %S: expected array of path strings" name)
  in
  go [] l

(* --- campaigns --------------------------------------------------------- *)

let runtime_to_json = function
  | Campaign.Sim -> J.Str "sim"
  | Campaign.Parallel n -> J.Obj [ ("domains", J.Num (float_of_int n)) ]

let runtime_of_json = function
  | J.Str "sim" -> Ok Campaign.Sim
  | J.Obj _ as o -> (
    let* n = Result.bind (int_field "domains" o) (domains ~flag:"domains") in
    Ok (Campaign.Parallel n))
  | _ -> Error "runtime: expected \"sim\" or {\"domains\": n}"

let campaign_to_json (c : Campaign.t) =
  let s = c.Campaign.spec in
  J.Obj
    [
      ("name", J.Str s.Campaign.sp_name);
      ("target", J.Str s.sp_target);
      ("variant", match s.sp_variant with Some v -> J.Str v | None -> J.Null);
      ("runtime", runtime_to_json s.sp_runtime);
      ("workers", J.Num (float_of_int s.sp_workers));
      ("speed", J.Num (float_of_int s.sp_speed));
      ("max_steps", J.Num (float_of_int s.sp_max_steps));
      ("seed", J.Num (float_of_int s.sp_seed));
      ( "slice_instrs",
        match s.sp_slice_instrs with Some n -> J.Num (float_of_int n) | None -> J.Null );
      ("status", J.Str (Campaign.status_to_string c.Campaign.status));
      ("paths", J.Num (float_of_int c.Campaign.paths));
      ("errors", J.Num (float_of_int c.Campaign.errors));
      ("useful", J.Num (float_of_int c.Campaign.useful));
      ("replay", J.Num (float_of_int c.Campaign.replay));
      ("transfers", J.Num (float_of_int c.Campaign.transfers));
      ("slices", J.Num (float_of_int c.Campaign.slices));
      ("started", J.Bool c.Campaign.started);
      ("frontier", J.Arr (List.map (fun p -> J.Str (Path.to_string p)) c.Campaign.frontier));
      ("bans", J.Arr (List.map (fun p -> J.Str (Path.to_string p)) c.Campaign.bans));
      ("coverage", J.Str (hex_of_bytes c.Campaign.coverage));
      ("coverable", J.Num (float_of_int c.Campaign.coverable));
    ]

let campaign_of_json v =
  let* name = str "name" v in
  let* name = Validate.name ~flag:"name" name in
  let* target = str "target" v in
  let* variant = opt_str "variant" v in
  let* runtime = Result.bind (field "runtime" v) runtime_of_json in
  let* workers = Result.bind (int_field "workers" v) (positive_int ~flag:"workers") in
  let* speed = Result.bind (int_field "speed" v) (positive_int ~flag:"speed") in
  let* max_steps = Result.bind (int_field "max_steps" v) (positive_int ~flag:"max_steps") in
  let* seed = int_field "seed" v in
  let* slice_instrs =
    match J.member "slice_instrs" v with
    | None | Some J.Null -> Ok None
    | Some x ->
      Result.map Option.some
        (Result.bind (int_of_json ~flag:"slice_instrs" x) (positive_int ~flag:"slice_instrs"))
  in
  let* status = Result.bind (str "status" v) Campaign.status_of_string in
  let* paths = Result.bind (int_field "paths" v) (non_negative_int ~flag:"paths") in
  let* errors = Result.bind (int_field "errors" v) (non_negative_int ~flag:"errors") in
  let* useful = int_field "useful" v in
  let* replay = int_field "replay" v in
  let* transfers = int_field "transfers" v in
  let* slices = int_field "slices" v in
  let* started =
    match J.member "started" v with
    | Some (J.Bool b) -> Ok b
    | _ -> Error "field \"started\": expected bool"
  in
  let* frontier = path_list "frontier" v in
  let* bans = path_list "bans" v in
  let* coverage = Result.bind (str "coverage" v) bytes_of_hex in
  let* coverable = Result.bind (int_field "coverable" v) (non_negative_int ~flag:"coverable") in
  let spec =
    {
      Campaign.sp_name = name;
      sp_target = target;
      sp_variant = variant;
      sp_runtime = runtime;
      sp_workers = workers;
      sp_speed = speed;
      sp_max_steps = max_steps;
      sp_seed = seed;
      sp_slice_instrs = slice_instrs;
    }
  in
  let c = Campaign.create spec in
  c.Campaign.status <- status;
  c.Campaign.paths <- paths;
  c.Campaign.errors <- errors;
  c.Campaign.useful <- useful;
  c.Campaign.replay <- replay;
  c.Campaign.transfers <- transfers;
  c.Campaign.slices <- slices;
  c.Campaign.started <- started;
  c.Campaign.frontier <- frontier;
  c.Campaign.bans <- bans;
  c.Campaign.coverage <- coverage;
  c.Campaign.coverable <- coverable;
  Campaign.recompute_coverage_frac c;
  Ok c

(* --- whole-service state ----------------------------------------------- *)

type state = { st_rotation : string list; st_campaigns : Campaign.t list }

let header_fields rotation =
  [
    ("version", J.Num (float_of_int version));
    ("kind", J.Str "cloud9-service-state");
    ("rotation", J.Arr (List.map (fun n -> J.Str n) rotation));
  ]

let state_to_json st =
  J.Obj
    (header_fields st.st_rotation
    @ [ ("campaigns", J.Arr (List.map campaign_to_json st.st_campaigns)) ])

let campaign_fragment c = J.to_string (campaign_to_json c)

let state_of_json v =
  let* ver = int_field "version" v in
  if ver <> version then
    Error (Printf.sprintf "snapshot version %d not supported (this codec is version %d)" ver version)
  else
    let* rotation =
      let* l =
        Result.bind (field "rotation" v)
          (fun x -> Option.to_result ~none:"field \"rotation\": expected array" (J.to_list x))
      in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | J.Str s :: rest -> go (s :: acc) rest
        | _ -> Error "field \"rotation\": expected array of strings"
      in
      go [] l
    in
    let* campaigns =
      let* l =
        Result.bind (field "campaigns" v)
          (fun x -> Option.to_result ~none:"field \"campaigns\": expected array" (J.to_list x))
      in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | c :: rest -> (
          match campaign_of_json c with Ok c -> go (c :: acc) rest | Error e -> Error e)
      in
      go [] l
    in
    Ok { st_rotation = rotation; st_campaigns = campaigns }

(* --- disk -------------------------------------------------------------- *)

(* Atomic rename-on-write: a crash mid-checkpoint leaves the previous
   snapshot intact; readers never observe a torn file.  The document is
   streamed as the header object without its closing brace, then the
   campaigns array built from the fragments — the bytes [state_to_json]
   would print. *)
let save path ~rotation fragments =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     let head = J.to_string (J.Obj (header_fields rotation)) in
     output_substring oc head 0 (String.length head - 1);
     output_string oc ",\"campaigns\":[";
     List.iteri
       (fun i f ->
         if i > 0 then output_char oc ',';
         output_string oc f)
       fragments;
     output_string oc "]}\n";
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | text -> Result.bind (J.parse text) state_of_json
