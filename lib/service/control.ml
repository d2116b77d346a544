(* JSONL control plane.  Commands arrive as newline-delimited JSON
   objects ({"cmd": "submit", ...}) on a file or pipe; the daemon
   appends newline-delimited JSON events in response.  Parsing is
   total: a malformed line becomes [Error] and is answered with a
   "rejected" event rather than killing the daemon. *)

module J = Obs.Json
open Validate

type command =
  | Submit of Campaign.spec
  | Status of string option  (* None = all campaigns *)
  | Pause of string
  | Resume of string
  | Cancel of string
  | Checkpoint
  | Shutdown

(* --- parsing ----------------------------------------------------------- *)

let get name v = Option.to_result ~none:(Printf.sprintf "missing field %S" name) (J.member name v)

let get_str name v =
  let* x = get name v in
  Option.to_result ~none:(Printf.sprintf "field %S: expected string" name) (J.to_str x)

let get_int ?default name v =
  match (J.member name v, default) with
  | (None | Some J.Null), Some d -> Ok d
  | (None | Some J.Null), None -> Error (Printf.sprintf "missing field %S" name)
  | Some x, _ -> int_of_json ~flag:name x

let target_name = get_str "name"

let parse_submit v =
  let* nm = Result.bind (get_str "name" v) (Validate.name ~flag:"name") in
  let* target = Result.bind (get_str "target" v) (Validate.name ~flag:"target") in
  let* variant =
    match J.member "variant" v with
    | None | Some J.Null -> Ok None
    | Some (J.Str s) -> Result.map Option.some (Validate.name ~flag:"variant" s)
    | Some _ -> Error "field \"variant\": expected string or null"
  in
  let* runtime =
    match J.member "runtime" v with
    | None | Some J.Null | Some (J.Str "sim") -> Ok Campaign.Sim
    | Some (J.Str "parallel") ->
      let* n = Result.bind (get_int ~default:2 "domains" v) (domains ~flag:"domains") in
      Ok (Campaign.Parallel n)
    | Some _ -> Error "field \"runtime\": expected \"sim\" or \"parallel\""
  in
  let* workers = Result.bind (get_int ~default:4 "workers" v) (positive_int ~flag:"workers") in
  let* speed = Result.bind (get_int ~default:30 "speed" v) (positive_int ~flag:"speed") in
  let* max_steps =
    Result.bind (get_int ~default:6000 "max_steps" v) (positive_int ~flag:"max_steps")
  in
  let* seed = get_int ~default:1 "seed" v in
  let* slice_instrs =
    match J.member "slice_instrs" v with
    | None | Some J.Null -> Ok None
    | Some x ->
      Result.map Option.some
        (Result.bind (int_of_json ~flag:"slice_instrs" x) (positive_int ~flag:"slice_instrs"))
  in
  Ok
    (Submit
       {
         Campaign.sp_name = nm;
         sp_target = target;
         sp_variant = variant;
         sp_runtime = runtime;
         sp_workers = workers;
         sp_speed = speed;
         sp_max_steps = max_steps;
         sp_seed = seed;
         sp_slice_instrs = slice_instrs;
       })

(* One JSONL line -> command. *)
let parse_command line =
  let* v = J.parse line in
  let* cmd = get_str "cmd" v in
  match cmd with
  | "submit" -> parse_submit v
  | "status" -> (
    match J.member "name" v with
    | None | Some J.Null -> Ok (Status None)
    | Some (J.Str s) -> Ok (Status (Some s))
    | Some _ -> Error "field \"name\": expected string or null")
  | "pause" -> Result.map (fun n -> Pause n) (target_name v)
  | "resume" -> Result.map (fun n -> Resume n) (target_name v)
  | "cancel" -> Result.map (fun n -> Cancel n) (target_name v)
  | "checkpoint" -> Ok Checkpoint
  | "shutdown" -> Ok Shutdown
  | other -> Error (Printf.sprintf "unknown command %S" other)

(* --- events ------------------------------------------------------------ *)

type event =
  | Accepted of string
  | Rejected of { line : string; reason : string }
  | Status_report of J.t list
  | Progress of { name : string; summary : J.t }
  | Campaign_done of { name : string; summary : J.t }
  | Checkpointed of { file : string; campaigns : int }
  | Telemetry of { name : string; from_ : string; to_ : string; progress : J.t }
  | Service_error of string
  | Shutting_down

let event_to_json = function
  | Accepted name -> J.Obj [ ("event", J.Str "accepted"); ("name", J.Str name) ]
  | Rejected { line; reason } ->
    J.Obj [ ("event", J.Str "rejected"); ("line", J.Str line); ("reason", J.Str reason) ]
  | Status_report rows -> J.Obj [ ("event", J.Str "status"); ("campaigns", J.Arr rows) ]
  | Progress { name; summary } ->
    J.Obj [ ("event", J.Str "progress"); ("name", J.Str name); ("campaign", summary) ]
  | Campaign_done { name; summary } ->
    J.Obj [ ("event", J.Str "done"); ("name", J.Str name); ("campaign", summary) ]
  | Checkpointed { file; campaigns } ->
    J.Obj
      [
        ("event", J.Str "checkpointed");
        ("file", J.Str file);
        ("campaigns", J.Num (float_of_int campaigns));
      ]
  | Telemetry { name; from_; to_; progress } ->
    J.Obj
      [
        ("event", J.Str "telemetry");
        ("name", J.Str name);
        ("from", J.Str from_);
        ("to", J.Str to_);
        ("progress", progress);
      ]
  | Service_error msg -> J.Obj [ ("event", J.Str "error"); ("reason", J.Str msg) ]
  | Shutting_down -> J.Obj [ ("event", J.Str "shutdown") ]

(* One event -> one newline-terminated JSONL line. *)
let event_to_line e = J.to_string (event_to_json e) ^ "\n"
