(* Tests for the campaign service: snapshot codec round-trips, atomic
   save/load, path-encoding parse/print properties, the checkpointed
   frontier differential (sliced and restored runs reach the exact
   totals of an uninterrupted one), round-robin fairness, CLI-shared
   validation rejections, the JSONL control plane end to end, and warm
   campaigns (eviction, kill/restore, pause and cancel stay exact). *)

module J = Obs.Json
module Path = Engine.Path
module C = Core.Cloud9
module S = Service.Snapshot
module V = Service.Validate

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let tmp_file =
  let n = ref 0 in
  fun suffix ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cloud9_svc_test_%d_%d%s" (Unix.getpid ()) !n suffix)

let printf_target () =
  match Core.Registry.resolve ~name:"printf" ~variant:(Some "sym-4") with
  | Some t -> t
  | None -> Alcotest.fail "printf/sym-4 target missing"

let small_options =
  {
    C.default_cluster_options with
    C.nworkers = 3;
    speed = 60;
    cworker_max_steps = Some 3000;
  }

(* --- path encoding ------------------------------------------------------ *)

let gen_path =
  QCheck2.Gen.(
    list_size (int_bound 16)
      (oneof
         [
           map (fun b -> Path.Branch b) bool;
           map (fun i -> Path.Sched i) (int_bound 12);
           map (fun i -> Path.Sys i) (int_bound 12);
         ]))

let prop_path_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"Path.of_string inverts to_string" gen_path (fun p ->
      Path.of_string (Path.to_string p) = Ok p)

let test_path_parse_errors () =
  (match Path.of_string "TFx" with
  | Error e -> Alcotest.(check bool) "names offset" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "expected parse error on 'x'");
  (match Path.of_string "Ts" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error on dangling 's'");
  Alcotest.(check bool) "empty path" true (Path.of_string "" = Ok [])

(* --- json printer/parser property (satellite a lives in test_obs too) -- *)

let gen_json =
  (* the printer guarantees exact round-trip for every finite double, so
     the property covers arbitrary finite floats *)
  let open QCheck2.Gen in
  let finite_float =
    map
      (fun f -> if Float.is_finite f then f else 0.25)
      (oneof [ float; map float_of_int (int_range (-1_000_000) 1_000_000) ])
  in
  let leaf =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun n -> J.Num n) finite_float;
        map (fun s -> J.Str s) (string_size ~gen:printable (int_bound 12));
      ]
  in
  let node self n =
    if n = 0 then leaf
    else
      oneof
        [
          leaf;
          map (fun l -> J.Arr l) (list_size (int_bound 4) (self (n / 2)));
          map
            (fun l -> J.Obj l)
            (list_size (int_bound 4)
               (pair (string_size ~gen:printable (int_bound 8)) (self (n / 2))));
        ]
  in
  sized_size (QCheck2.Gen.int_bound 8) (fix node)

let prop_json_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"Json.parse inverts to_string" gen_json (fun v ->
      J.parse (J.to_string v) = Ok v)

(* --- validation --------------------------------------------------------- *)

let test_validate_rejections () =
  (match V.positive_int ~flag:"--max-steps" 0 with
  | Error m ->
    Alcotest.(check bool) "names the flag" true (String.length m > 0 && m.[0] = '-')
  | Ok _ -> Alcotest.fail "0 must be rejected");
  (match V.positive_int ~flag:"--parallel" (-3) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "-3 must be rejected");
  Alcotest.(check bool) "1 accepted" true (V.positive_int ~flag:"x" 1 = Ok 1);
  Alcotest.(check bool) "0 non-negative" true (V.non_negative_int ~flag:"x" 0 = Ok 0);
  (match V.non_negative_int ~flag:"x" (-1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "-1 must be rejected");
  (match V.name ~flag:"name" "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty name must be rejected");
  (match V.name ~flag:"name" "has space" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "whitespace name must be rejected");
  Alcotest.(check bool) "plain name ok" true (V.name ~flag:"name" "c1" = Ok "c1")

(* the CLI rejects the same values through the shared converter *)
let test_cli_flag_rejections () =
  let exe = "../bin/cloud9.exe" in
  if Sys.file_exists exe then begin
    let run args =
      Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" exe (String.concat " " args))
    in
    Alcotest.(check bool) "--max-steps 0 rejected" true (run [ "run"; "printf"; "--max-steps"; "0" ] <> 0);
    Alcotest.(check bool) "--parallel 0 rejected" true (run [ "run"; "printf"; "-p"; "0" ] <> 0);
    Alcotest.(check bool) "--workers -1 rejected" true (run [ "run"; "printf"; "-w"; "-1" ] <> 0);
    Alcotest.(check bool) "serve --slice 0 rejected" true
      (run [ "serve"; "--state"; "/dev/null"; "--slice"; "0" ] <> 0)
  end

(* --- scheduler ---------------------------------------------------------- *)

let test_scheduler_round_robin () =
  let s = Service.Scheduler.create () in
  List.iter (Service.Scheduler.add s) [ "a"; "b"; "c" ];
  Service.Scheduler.add s "a" (* idempotent *);
  Alcotest.(check (list string)) "rotation" [ "a"; "b"; "c" ] (Service.Scheduler.rotation s);
  let always = fun _ -> true in
  let picks = List.init 7 (fun _ -> Option.get (Service.Scheduler.next s ~runnable:always)) in
  Alcotest.(check (list string))
    "strict rotation" [ "a"; "b"; "c"; "a"; "b"; "c"; "a" ] picks;
  (* starvation bound: between two grants to any name, every other name
     is granted at most once — check over a longer window *)
  let picks = List.init 30 (fun _ -> Option.get (Service.Scheduler.next s ~runnable:always)) in
  let rec gaps = function
    | [] -> ()
    | x :: rest -> (
      match List.find_index (fun y -> y = x) rest with
      | Some i -> Alcotest.(check bool) "gap <= K-1" true (i <= 2); gaps rest
      | None -> gaps rest)
  in
  gaps picks;
  (* a non-runnable name keeps its place and is skipped *)
  let skip_b = fun n -> n <> "b" in
  let p1 = Option.get (Service.Scheduler.next s ~runnable:skip_b) in
  let p2 = Option.get (Service.Scheduler.next s ~runnable:skip_b) in
  Alcotest.(check bool) "b skipped" true (p1 <> "b" && p2 <> "b");
  Service.Scheduler.remove s "b";
  Alcotest.(check int) "removed" 2 (List.length (Service.Scheduler.rotation s));
  Alcotest.(check bool) "none runnable" true
    (Service.Scheduler.next s ~runnable:(fun _ -> false) = None)

(* --- snapshot codec ----------------------------------------------------- *)

let sample_campaign () =
  let spec =
    {
      Service.Campaign.sp_name = "c1";
      sp_target = "printf";
      sp_variant = Some "sym-4";
      sp_runtime = Service.Campaign.Sim;
      sp_workers = 3;
      sp_speed = 60;
      sp_max_steps = 3000;
      sp_seed = 7;
      sp_slice_instrs = Some 2500;
    }
  in
  let c = Service.Campaign.create spec in
  c.Service.Campaign.status <- Service.Campaign.Running;
  c.Service.Campaign.paths <- 41;
  c.Service.Campaign.errors <- 2;
  c.Service.Campaign.useful <- 9000;
  c.Service.Campaign.replay <- 1200;
  c.Service.Campaign.transfers <- 17;
  c.Service.Campaign.slices <- 4;
  c.Service.Campaign.started <- true;
  c.Service.Campaign.frontier <-
    [ [ Path.Branch true; Path.Sched 2; Path.Branch false ]; [ Path.Sys 11 ] ];
  c.Service.Campaign.bans <- [ [ Path.Branch false; Path.Branch false ] ];
  c.Service.Campaign.coverage <- Bytes.of_string "\x0f\xa0\x03";
  c.Service.Campaign.coverable <- 20;
  Service.Campaign.recompute_coverage_frac c;
  c

let campaign_equal (a : Service.Campaign.t) (b : Service.Campaign.t) =
  a.Service.Campaign.spec = b.Service.Campaign.spec
  && a.Service.Campaign.status = b.Service.Campaign.status
  && a.Service.Campaign.paths = b.Service.Campaign.paths
  && a.Service.Campaign.errors = b.Service.Campaign.errors
  && a.Service.Campaign.useful = b.Service.Campaign.useful
  && a.Service.Campaign.replay = b.Service.Campaign.replay
  && a.Service.Campaign.transfers = b.Service.Campaign.transfers
  && a.Service.Campaign.slices = b.Service.Campaign.slices
  && a.Service.Campaign.started = b.Service.Campaign.started
  && a.Service.Campaign.frontier = b.Service.Campaign.frontier
  && a.Service.Campaign.bans = b.Service.Campaign.bans
  && Bytes.equal a.Service.Campaign.coverage b.Service.Campaign.coverage
  && a.Service.Campaign.coverable = b.Service.Campaign.coverable

(* Outside integers are decoded by one check: integer-valued and inside
   [int], never truncated; domain counts must also fit OCaml 5.1's
   per-process domain limit.  Decoder level only: no campaign runs and
   no domain starts with any of these counts. *)
let test_validate_json_ints () =
  let ok f = V.int_of_json ~flag:"n" (J.Num f) in
  let rejected what r = Alcotest.(check bool) (what ^ " rejected") true (Result.is_error r) in
  Alcotest.(check bool) "3 accepted" true (ok 3.0 = Ok 3);
  Alcotest.(check bool) "min_int accepted" true (ok (Float.of_int min_int) = Ok min_int);
  Alcotest.(check bool) "2^61 accepted" true (ok 0x1p61 = Ok (1 lsl 61));
  List.iter
    (fun f -> rejected (J.number_to_string f) (ok f))
    [ 2.5; 3.7; -0.5; 1e19; -1e19; 0x1p62; Float.nan; Float.infinity ];
  rejected "string" (V.int_of_json ~flag:"n" (J.Str "3"));
  rejected "null" (V.int_of_json ~flag:"n" J.Null);
  Alcotest.(check bool) "1 domain" true (V.domains ~flag:"d" 1 = Ok 1);
  Alcotest.(check bool) "max domains" true (V.domains ~flag:"d" V.max_domains = Ok 127);
  List.iter
    (fun n -> rejected (Printf.sprintf "%d domains" n) (V.domains ~flag:"d" n))
    [ 0; -1; 128; 100_000; 1 lsl 61 ];
  (* snapshot restore: runtime and counters go through the same checks *)
  let with_field name v =
    match S.campaign_to_json (sample_campaign ()) with
    | J.Obj fs -> J.Obj (List.map (fun (k, x) -> if k = name then (k, v) else (k, x)) fs)
    | _ -> Alcotest.fail "campaign encodes as an object"
  in
  let restore name v = S.campaign_of_json (with_field name v) in
  let parallel n = J.Obj [ ("domains", J.Num n) ] in
  Alcotest.(check bool) "snapshot domains 127 accepted" true
    (match restore "runtime" (parallel 127.0) with
    | Ok c -> c.Service.Campaign.spec.Service.Campaign.sp_runtime = Service.Campaign.Parallel 127
    | Error _ -> false);
  List.iter
    (fun f -> rejected ("snapshot domains " ^ J.number_to_string f) (restore "runtime" (parallel f)))
    [ 1e19; 2.5; 0.0; 128.0; 100000.0; 0x1p61 ];
  rejected "snapshot workers 3.7" (restore "workers" (J.Num 3.7));
  rejected "snapshot slice_instrs 2.5" (restore "slice_instrs" (J.Num 2.5));
  (* control submit *)
  let submit extra =
    Service.Control.parse_command
      (Printf.sprintf {|{"cmd":"submit","name":"c1","target":"printf",%s}|} extra)
  in
  Alcotest.(check bool) "submit domains 127 accepted" true
    (match submit {|"runtime":"parallel","domains":127|} with
    | Ok (Service.Control.Submit s) ->
      s.Service.Campaign.sp_runtime = Service.Campaign.Parallel 127
    | _ -> false);
  List.iter
    (fun d -> rejected ("submit domains " ^ d) (submit ({|"runtime":"parallel","domains":|} ^ d)))
    [ "2.5"; "0"; "128"; "100000"; "2305843009213693952"; "1e19" ];
  rejected "submit workers 3.7" (submit {|"workers":3.7|});
  rejected "submit slice_instrs 2.5" (submit {|"slice_instrs":2.5|})

let test_snapshot_roundtrip () =
  let st = { S.st_rotation = [ "c1"; "c9" ]; st_campaigns = [ sample_campaign () ] } in
  let text = J.to_string (S.state_to_json st) in
  match Result.bind (J.parse text) S.state_of_json with
  | Error e -> Alcotest.fail e
  | Ok st' ->
    Alcotest.(check (list string)) "rotation" st.S.st_rotation st'.S.st_rotation;
    Alcotest.(check int) "count" 1 (List.length st'.S.st_campaigns);
    Alcotest.(check bool) "campaign round-trips" true
      (campaign_equal (List.hd st.S.st_campaigns) (List.hd st'.S.st_campaigns))

let test_snapshot_save_load () =
  let path = tmp_file ".json" in
  let st = { S.st_rotation = [ "c1" ]; st_campaigns = [ sample_campaign () ] } in
  S.save path ~rotation:st.S.st_rotation (List.map S.campaign_fragment st.S.st_campaigns);
  Alcotest.(check bool) "no tmp leftover" false (Sys.file_exists (path ^ ".tmp"));
  (match S.load path with
  | Error e -> Alcotest.fail e
  | Ok st' ->
    Alcotest.(check bool) "persisted campaign" true
      (campaign_equal (List.hd st.S.st_campaigns) (List.hd st'.S.st_campaigns)));
  (* corrupt file: refused, not crashed *)
  let oc = open_out path in
  output_string oc "{not json";
  close_out oc;
  (match S.load path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt snapshot must be refused");
  (* version gate *)
  let oc = open_out path in
  output_string oc {|{"version":99,"rotation":[],"campaigns":[]}|};
  close_out oc;
  (match S.load path with
  | Error m -> Alcotest.(check bool) "names version" true (String.length m > 0)
  | Ok _ -> Alcotest.fail "future snapshot version must be refused");
  Sys.remove path

(* [save] writes [path ^ ".tmp"] and renames it: a save torn before the
   rename leaves a truncated [.tmp] beside the intact snapshot.  [load]
   must not see it, and the next [save] must replace it. *)
let test_snapshot_torn_save () =
  let path = tmp_file ".json" in
  let c = sample_campaign () in
  S.save path ~rotation:[ "c1" ] [ S.campaign_fragment c ];
  let before = S.load path in
  Alcotest.(check bool) "intact snapshot loads" true (Result.is_ok before);
  let text = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin (path ^ ".tmp") (fun oc ->
      output_string oc (String.sub text 0 (String.length text / 2)));
  (match (before, S.load path) with
  | Ok a, Ok b ->
    Alcotest.(check (list string)) "same rotation" a.S.st_rotation b.S.st_rotation;
    Alcotest.(check bool) "same campaign" true
      (List.equal campaign_equal a.S.st_campaigns b.S.st_campaigns)
  | _ -> Alcotest.fail "a torn .tmp must not change what load returns");
  c.Service.Campaign.paths <- 99;
  S.save path ~rotation:[ "c1" ] [ S.campaign_fragment c ];
  Alcotest.(check bool) "next save replaces the .tmp" false (Sys.file_exists (path ^ ".tmp"));
  (match S.load path with
  | Ok st -> Alcotest.(check int) "new save loads" 99 (List.hd st.S.st_campaigns).Service.Campaign.paths
  | Error e -> Alcotest.fail e);
  Sys.remove path

(* Every prefix and every single-byte substitution of [text] through a
   total decoder: each must return [Ok] or [Error], never raise. *)
let check_total what decode text =
  let try_ s =
    match decode s with
    | Ok _ | Error _ -> ()
    | exception e -> Alcotest.failf "%s raised %s on %S" what (Printexc.to_string e) s
  in
  for n = 0 to String.length text do
    try_ (String.sub text 0 n)
  done;
  let b = Bytes.of_string text in
  for i = 0 to Bytes.length b - 1 do
    let orig = Bytes.get b i in
    for v = 0 to 255 do
      if Char.chr v <> orig then begin
        Bytes.set b i (Char.chr v);
        try_ (Bytes.to_string b)
      end
    done;
    Bytes.set b i orig
  done

(* A saved snapshot (one simulated and one multicore campaign), cut or
   corrupted: prefixes go through [load] on disk, and every one shorter
   than the document is refused; substitutions go through the decoder
   [load] applies to the bytes it reads. *)
let test_snapshot_corruption_total () =
  let path = tmp_file ".json" in
  let par =
    Service.Campaign.create
      {
        (sample_campaign ()).Service.Campaign.spec with
        Service.Campaign.sp_name = "c2";
        sp_runtime = Parallel 2;
      }
  in
  S.save path ~rotation:[ "c1"; "c2" ] (List.map S.campaign_fragment [ sample_campaign (); par ]);
  let text = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check bool) "intact snapshot loads" true (Result.is_ok (S.load path));
  let via_disk s =
    Out_channel.with_open_bin path (fun oc -> output_string oc s);
    S.load path
  in
  let doc_len = String.length (String.trim text) in
  for n = 0 to String.length text - 1 do
    match via_disk (String.sub text 0 n) with
    | Ok _ when n < doc_len -> Alcotest.failf "a %d-byte prefix of the snapshot loaded" n
    | Ok _ | Error _ -> ()
    | exception e -> Alcotest.failf "load raised %s on a %d-byte prefix" (Printexc.to_string e) n
  done;
  check_total "snapshot decode" (fun s -> Result.bind (J.parse s) S.state_of_json) text;
  Sys.remove path

let test_control_corruption_total () =
  List.iter
    (fun line ->
      Alcotest.(check bool) ("intact line parses: " ^ line) true
        (Result.is_ok (Service.Control.parse_command line));
      check_total "Control.parse_command" Service.Control.parse_command line)
    [
      {|{"cmd":"submit","name":"c1","target":"printf","variant":"sym-4","runtime":"parallel","domains":2,"workers":3,"speed":30,"max_steps":6000,"seed":7,"slice_instrs":500}|};
      {|{"cmd":"status","name":"c1"}|};
      {|{"cmd":"status"}|};
      {|{"cmd":"pause","name":"c1"}|};
      {|{"cmd":"resume","name":"c1"}|};
      {|{"cmd":"cancel","name":"c1"}|};
      {|{"cmd":"checkpoint"}|};
      {|{"cmd":"shutdown"}|};
    ]

let test_hex_roundtrip () =
  let b = Bytes.init 64 (fun i -> Char.chr ((i * 37) land 0xff)) in
  (match S.bytes_of_hex (S.hex_of_bytes b) with
  | Ok b' -> Alcotest.(check bool) "hex roundtrip" true (Bytes.equal b b')
  | Error e -> Alcotest.fail e);
  (match S.bytes_of_hex "abc" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "odd-length hex must be refused");
  match S.bytes_of_hex "zz" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-hex must be refused"

(* --- frontier export: serialize -> parse -> replay differential --------- *)

(* An interrupted run whose frontier crosses the textual wire format must
   reach the exact totals of an uninterrupted one. *)
let test_export_serialize_reimport_differential () =
  let t = printf_target () in
  let full = C.run_cluster ~options:small_options t in
  (* slice 1: preempt after a small budget, frontier captured at barrier *)
  let r1 = Cluster.Driver.advance (C.start_cluster ~options:small_options t) ~budget:4000 in
  let fx = Option.get r1.Cluster.Driver.export in
  Alcotest.(check bool) "mid-run frontier nonempty" true (fx.Cluster.Driver.fx_jobs <> []);
  (* round-trip every frontier/ban path through the snapshot wire format *)
  let reparse p =
    match Path.of_string (Path.to_string p) with
    | Ok p' -> p'
    | Error e -> Alcotest.fail e
  in
  let fx =
    {
      fx with
      Cluster.Driver.fx_jobs = List.map reparse fx.Cluster.Driver.fx_jobs;
      fx_bans = List.map reparse fx.Cluster.Driver.fx_bans;
    }
  in
  (* slice 2: resume from the reparsed frontier, run to exhaustion *)
  let r2 =
    Cluster.Driver.advance (C.start_cluster ~options:small_options ~resume:fx t) ~budget:max_int
  in
  let fx2 = Option.get r2.Cluster.Driver.export in
  Alcotest.(check (list pass)) "exhausted" [] fx2.Cluster.Driver.fx_jobs;
  Alcotest.(check int) "paths match uninterrupted"
    full.Cluster.Driver.total_paths
    (r1.Cluster.Driver.total_paths + r2.Cluster.Driver.total_paths);
  Alcotest.(check int) "errors match uninterrupted"
    full.Cluster.Driver.total_errors
    (r1.Cluster.Driver.total_errors + r2.Cluster.Driver.total_errors);
  (* coverage: OR of the slices' exported vectors equals the full run's *)
  let coverable = List.length (Cvm.Program.covered_lines t.C.program) in
  let union =
    Engine.Coverage.(
      fraction ~coverable
        (popcount (union_into (Bytes.copy fx.Cluster.Driver.fx_coverage) fx2.Cluster.Driver.fx_coverage)))
  in
  Alcotest.(check (float 1e-9)) "coverage matches" full.Cluster.Driver.final_coverage union

(* --- control plane ------------------------------------------------------ *)

let test_control_parse () =
  (match
     Service.Control.parse_command
       {|{"cmd":"submit","name":"c1","target":"printf","variant":"sym-4","workers":2,"slice_instrs":500}|}
   with
  | Ok (Service.Control.Submit s) ->
    Alcotest.(check string) "name" "c1" s.Service.Campaign.sp_name;
    Alcotest.(check string) "target" "printf" s.Service.Campaign.sp_target;
    Alcotest.(check bool) "variant" true (s.Service.Campaign.sp_variant = Some "sym-4");
    Alcotest.(check int) "workers" 2 s.Service.Campaign.sp_workers;
    Alcotest.(check bool) "slice" true (s.Service.Campaign.sp_slice_instrs = Some 500)
  | Ok _ -> Alcotest.fail "expected Submit"
  | Error e -> Alcotest.fail e);
  (match Service.Control.parse_command {|{"cmd":"submit","name":"c1","target":"x","workers":0}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "workers 0 must be rejected");
  (match Service.Control.parse_command {|{"cmd":"submit","name":"a b","target":"x"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "name with space must be rejected");
  (match Service.Control.parse_command {|{"cmd":"pause","name":"c1"}|} with
  | Ok (Service.Control.Pause "c1") -> ()
  | _ -> Alcotest.fail "expected Pause c1");
  (match Service.Control.parse_command {|{"cmd":"status"}|} with
  | Ok (Service.Control.Status None) -> ()
  | _ -> Alcotest.fail "expected Status None");
  (match Service.Control.parse_command {|{"cmd":"shutdown"}|} with
  | Ok Service.Control.Shutdown -> ()
  | _ -> Alcotest.fail "expected Shutdown");
  (match Service.Control.parse_command "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "junk must be rejected");
  match Service.Control.parse_command {|{"cmd":"frobnicate"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown command must be rejected"

let read_events path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    String.split_on_char '\n' text
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           match J.parse l with
           | Ok v -> v
           | Error e -> Alcotest.fail (Printf.sprintf "bad event line %S: %s" l e))
  end

let event_kinds evs =
  List.filter_map (fun v -> Option.bind (J.member "event" v) J.to_str) evs

let submit_spec ?(slice = 2000) name =
  {
    Service.Campaign.sp_name = name;
    sp_target = "printf";
    sp_variant = Some "sym-4";
    sp_runtime = Service.Campaign.Sim;
    sp_workers = 3;
    sp_speed = 60;
    sp_max_steps = 3000;
    sp_seed = 42;
    sp_slice_instrs = Some slice;
  }

let test_daemon_control_integration () =
  let state = tmp_file "_state.json" in
  let control = tmp_file "_cmds.jsonl" in
  let events = tmp_file "_events.jsonl" in
  let oc = open_out control in
  output_string oc
    {|{"cmd":"submit","name":"c1","target":"printf","variant":"sym-4","workers":3,"speed":60,"max_steps":3000,"slice_instrs":2000}|};
  output_string oc "\n";
  output_string oc {|{"cmd":"submit","name":"c1","target":"printf"}|};
  output_string oc "\n";
  output_string oc {|{"cmd":"submit","name":"bad","target":"no-such-target"}|};
  output_string oc "\n";
  output_string oc {|{"cmd":"status"}|};
  output_string oc "\n";
  output_string oc {|{"cmd":"bogus"}|};
  output_string oc "\n";
  (* a partial line must stay unconsumed *)
  output_string oc {|{"cmd":"shutdown"|};
  close_out oc;
  let cfg =
    {
      (Service.Daemon.default_config ~state_file:state) with
      Service.Daemon.control_file = Some control;
      events_file = Some events;
      slice_instrs = 2000;
      checkpoint_every = 0;
    }
  in
  let d = Result.get_ok (Service.Daemon.create cfg) in
  (match Service.Daemon.step d with
  | `Sliced "c1" -> ()
  | _ -> Alcotest.fail "expected a slice for c1");
  let kinds = event_kinds (read_events events) in
  Alcotest.(check bool) "accepted" true (List.mem "accepted" kinds);
  Alcotest.(check int) "rejections (dup, bad target, bogus cmd)" 3
    (List.length (List.filter (fun k -> k = "rejected") kinds));
  Alcotest.(check bool) "status report" true (List.mem "status" kinds);
  Alcotest.(check bool) "progress" true (List.mem "progress" kinds);
  Alcotest.(check bool) "partial line not consumed" true
    (not (List.mem "shutdown" kinds));
  (* complete the partial shutdown line: it must now be picked up *)
  let oc = open_out_gen [ Open_append ] 0o644 control in
  output_string oc "}\n";
  close_out oc;
  (match Service.Daemon.step d with
  | `Stopped -> ()
  | _ -> Alcotest.fail "expected Stopped after shutdown");
  let kinds = event_kinds (read_events events) in
  Alcotest.(check bool) "shutdown event" true (List.mem "shutdown" kinds);
  Alcotest.(check bool) "shutdown checkpointed" true (List.mem "checkpointed" kinds);
  Alcotest.(check bool) "state file exists" true (Sys.file_exists state);
  (* pause/resume/cancel through a fresh daemon restored from the snapshot *)
  let control2 = tmp_file "_cmds2.jsonl" in
  let oc = open_out control2 in
  output_string oc "{\"cmd\":\"pause\",\"name\":\"c1\"}\n";
  close_out oc;
  let d2 =
    Result.get_ok
      (Service.Daemon.create
         { cfg with Service.Daemon.control_file = Some control2; events_file = None })
  in
  (match Service.Daemon.step d2 with
  | `Idle -> () (* paused campaign: nothing runnable *)
  | _ -> Alcotest.fail "paused campaign must not be sliced");
  let c = Option.get (Service.Daemon.find d2 "c1") in
  Alcotest.(check bool) "paused" true (c.Service.Campaign.status = Service.Campaign.Paused);
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ state; control; control2; events ]

(* --- checkpoint / kill / restore differential --------------------------- *)

let drive_to_completion d =
  let rec go n =
    if n > 2000 then Alcotest.fail "daemon did not converge"
    else
      match Service.Daemon.step d with
      | `Sliced _ -> go (n + 1)
      | `Idle | `Stopped -> ()
  in
  go 0

let test_checkpoint_kill_restore_differential () =
  let t = printf_target () in
  let full = C.run_cluster ~options:small_options t in
  let state = tmp_file "_state.json" in
  let cfg =
    {
      (Service.Daemon.default_config ~state_file:state) with
      Service.Daemon.slice_instrs = 2000;
      checkpoint_every = 1; (* checkpoint after every slice *)
    }
  in
  let d = Result.get_ok (Service.Daemon.create cfg) in
  Service.Daemon.submit d (submit_spec "c1");
  (* run a handful of slices mid-campaign, then "kill" the daemon: drop
     it on the floor with the last checkpoint on disk *)
  for _ = 1 to 5 do
    ignore (Service.Daemon.step d)
  done;
  let mid = Option.get (Service.Daemon.find d "c1") in
  Alcotest.(check bool) "killed mid-campaign" true
    (mid.Service.Campaign.status = Service.Campaign.Running);
  (* restore from the snapshot and drive the campaign to completion *)
  let d2 = Result.get_ok (Service.Daemon.create cfg) in
  let c = Option.get (Service.Daemon.find d2 "c1") in
  Alcotest.(check int) "counters restored" mid.Service.Campaign.paths c.Service.Campaign.paths;
  drive_to_completion d2;
  let c = Option.get (Service.Daemon.find d2 "c1") in
  Alcotest.(check bool) "done" true (c.Service.Campaign.status = Service.Campaign.Done);
  Alcotest.(check int) "paths == uninterrupted" full.Cluster.Driver.total_paths
    c.Service.Campaign.paths;
  Alcotest.(check int) "errors == uninterrupted" full.Cluster.Driver.total_errors
    c.Service.Campaign.errors;
  Sys.remove state

(* --- incremental checkpoints ------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The daemon re-encodes only campaigns whose slice count or status moved
   since its last checkpoint.  After every step of a mix of slices,
   pause, resume, cancel, a manual checkpoint and a restore into a fresh
   daemon, the file must hold exactly the full encoding of the live
   campaigns under the persisted rotation. *)
let test_incremental_checkpoint_bytes () =
  let state = tmp_file "_state.json" in
  let control = tmp_file "_cmds.jsonl" in
  close_out (open_out control);
  let cfg =
    {
      (Service.Daemon.default_config ~state_file:state) with
      Service.Daemon.control_file = Some control;
      slice_instrs = 1500;
      checkpoint_every = 1;
    }
  in
  let command line =
    let oc = open_out_gen [ Open_append ] 0o644 control in
    output_string oc (line ^ "\n");
    close_out oc
  in
  let checked = ref 0 in
  let check_bytes d =
    let text = read_file state in
    let rotation =
      match S.load state with Ok st -> st.S.st_rotation | Error e -> Alcotest.fail e
    in
    let full =
      J.to_string (S.state_to_json { S.st_rotation = rotation; st_campaigns = Service.Daemon.campaigns d })
    in
    incr checked;
    Alcotest.(check string) (Printf.sprintf "snapshot %d bytes" !checked) (full ^ "\n") text
  in
  let step d = ignore (Service.Daemon.step d); check_bytes d in
  let d = Result.get_ok (Service.Daemon.create cfg) in
  List.iter (fun n -> Service.Daemon.submit d (submit_spec ~slice:1500 n)) [ "a"; "b"; "c" ];
  step d;
  step d;
  command {|{"cmd":"pause","name":"a"}|};
  command {|{"cmd":"checkpoint"}|};
  step d;
  step d;
  command {|{"cmd":"resume","name":"a"}|};
  command {|{"cmd":"cancel","name":"b"}|};
  step d;
  step d;
  (* restore: a fresh daemon starts with no fragments *)
  let d2 = Result.get_ok (Service.Daemon.create cfg) in
  step d2;
  command {|{"cmd":"pause","name":"c"}|};
  step d2;
  command {|{"cmd":"resume","name":"c"}|};
  step d2;
  step d2;
  let slices n = (Option.get (Service.Daemon.find d2 n)).Service.Campaign.slices in
  Alcotest.(check bool) "every campaign sliced" true (List.for_all (fun n -> slices n > 0) [ "a"; "b"; "c" ]);
  Alcotest.(check bool) "b cancelled" true
    ((Option.get (Service.Daemon.find d2 "b")).Service.Campaign.status = Service.Campaign.Cancelled);
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ state; control ]

(* --- multi-tenant fairness ---------------------------------------------- *)

let test_multi_tenant_progress () =
  let state = tmp_file "_state.json" in
  let cfg =
    {
      (Service.Daemon.default_config ~state_file:state) with
      Service.Daemon.slice_instrs = 1500;
      checkpoint_every = 0;
    }
  in
  let d = Result.get_ok (Service.Daemon.create cfg) in
  List.iter (fun n -> Service.Daemon.submit d (submit_spec ~slice:1500 n)) [ "a"; "b"; "c" ];
  (* 9 slices: strict round-robin means every campaign gets exactly 3 *)
  let grants = Hashtbl.create 4 in
  for _ = 1 to 9 do
    match Service.Daemon.step d with
    | `Sliced n -> Hashtbl.replace grants n (1 + Option.value ~default:0 (Hashtbl.find_opt grants n))
    | _ -> Alcotest.fail "expected a slice"
  done;
  List.iter
    (fun n -> Alcotest.(check int) (n ^ " granted fairly") 3 (Hashtbl.find grants n))
    [ "a"; "b"; "c" ];
  List.iter
    (fun n ->
      let c = Option.get (Service.Daemon.find d n) in
      Alcotest.(check bool) (n ^ " made progress") true (c.Service.Campaign.paths > 0))
    [ "a"; "b"; "c" ];
  if Sys.file_exists state then Sys.remove state

(* --- warm campaigns ------------------------------------------------------ *)

module D = Service.Daemon
module SC = Service.Campaign

(* The totals every printf/sym-4 campaign of [submit_spec] must reach. *)
let uninterrupted = lazy (C.run_cluster ~options:small_options (printf_target ()))

let warm_config ?control ?events ?telemetry state =
  {
    (D.default_config ~state_file:state) with
    D.control_file = control;
    events_file = events;
    telemetry;
    slice_instrs = 1500;
    checkpoint_every = 1;
  }

let append_line file line =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
  output_string oc (line ^ "\n");
  close_out oc

let submit_all d names = List.iter (fun n -> D.submit d (submit_spec ~slice:1500 n)) names

let step_sliced d =
  match D.step d with `Sliced n -> n | _ -> Alcotest.fail "expected a slice"

let warm_names d names = List.filter (D.is_warm d) names

(* Drive to completion; the number of warm clusters never exceeds the
   limit, and finished campaigns hold none. *)
let drive_warm d names =
  let rec go n =
    if n > 5000 then Alcotest.fail "daemon did not converge"
    else
      match D.step d with
      | `Sliced _ ->
        if List.length (warm_names d names) > D.warm_limit then
          Alcotest.fail "more warm clusters than the limit";
        go (n + 1)
      | `Idle | `Stopped -> ()
  in
  go 0;
  Alcotest.(check (list string)) "no warm cluster outlives its campaign" [] (warm_names d names)

let check_exact d names =
  let full = Lazy.force uninterrupted in
  List.iter
    (fun n ->
      let c = Option.get (D.find d n) in
      Alcotest.(check bool) (n ^ " done") true (c.SC.status = SC.Done);
      Alcotest.(check int) (n ^ " paths == uninterrupted") full.Cluster.Driver.total_paths c.SC.paths;
      Alcotest.(check int) (n ^ " errors == uninterrupted") full.Cluster.Driver.total_errors
        c.SC.errors)
    names

let campaign_names k = List.init k (Printf.sprintf "w%d")

let remove_files = List.iter (fun f -> if Sys.file_exists f then Sys.remove f)

(* More campaigns than warm slots: the first [warm_limit] granted keep
   theirs, the rest run cold until a slot frees, and every campaign
   reaches the exact uninterrupted totals. *)
let test_warm_eviction () =
  let state = tmp_file "_state.json" in
  let d = Result.get_ok (D.create (warm_config state)) in
  let names = campaign_names (D.warm_limit + 2) in
  submit_all d names;
  List.iter (fun _ -> ignore (step_sliced d)) names;
  Alcotest.(check (list string)) "the first granted hold the slots"
    (List.filteri (fun i _ -> i < D.warm_limit) names)
    (warm_names d names);
  drive_warm d names;
  check_exact d names;
  remove_files [ state ]

(* Kill the daemon while its campaigns are warm: the restored daemon has
   no warm state and resumes each campaign from its checkpointed
   frontier to the exact totals. *)
let test_warm_kill_restore () =
  let state = tmp_file "_state.json" in
  let cfg = warm_config state in
  let d = Result.get_ok (D.create cfg) in
  let names = campaign_names 3 in
  submit_all d names;
  for _ = 1 to 6 do
    ignore (step_sliced d)
  done;
  Alcotest.(check (list string)) "all warm before the kill" names (warm_names d names);
  let d2 = Result.get_ok (D.create cfg) in
  Alcotest.(check (list string)) "none warm after the restore" [] (warm_names d2 names);
  drive_warm d2 names;
  check_exact d2 names;
  remove_files [ state ]

(* [warm_limit] + 1 campaigns; after one round the last is the only cold
   one.  Pausing (or cancelling) [w0] frees its slot, so the last
   campaign keeps its cluster from its next slice on. *)
let test_warm_slot_freed ~cancel () =
  let state = tmp_file "_state.json" and control = tmp_file "_cmds.jsonl" in
  let d = Result.get_ok (D.create (warm_config ~control state)) in
  let names = campaign_names (D.warm_limit + 1) in
  let last = List.nth names D.warm_limit in
  submit_all d names;
  List.iter (fun _ -> ignore (step_sliced d)) names;
  Alcotest.(check bool) "the last granted is cold" false (D.is_warm d last);
  append_line control
    (Printf.sprintf {|{"cmd":"%s","name":"w0"}|} (if cancel then "cancel" else "pause"));
  let rec until_last () = if step_sliced d <> last then until_last () in
  until_last ();
  Alcotest.(check bool) "w0's slot is free" false (D.is_warm d "w0");
  Alcotest.(check bool) "the last campaign took it" true (D.is_warm d last);
  if not cancel then append_line control {|{"cmd":"resume","name":"w0"}|};
  drive_warm d names;
  let w0 = Option.get (D.find d "w0") in
  if cancel then begin
    Alcotest.(check bool) "w0 cancelled" true (w0.SC.status = SC.Cancelled);
    check_exact d (List.tl names)
  end
  else check_exact d names;
  remove_files [ state; control ]

(* The "warm" flag in status event rows and status file rows, and its
   absence from the snapshot. *)
let test_warm_summary_rows () =
  let state = tmp_file "_state.json"
  and control = tmp_file "_cmds.jsonl"
  and events = tmp_file "_events.jsonl"
  and status = tmp_file "_status.json" in
  let telemetry =
    { Service.Telemetry.default_config with cadence_slices = 1; status_file = Some status }
  in
  let d = Result.get_ok (D.create (warm_config ~control ~events ~telemetry state)) in
  submit_all d [ "w0" ];
  ignore (step_sliced d);
  append_line control {|{"cmd":"status"}|};
  ignore (step_sliced d);
  let warm_of row = J.member "warm" row in
  let status_rows =
    List.filter_map
      (fun ev ->
        if J.member "event" ev = Some (J.Str "status") then
          Option.bind (J.member "campaigns" ev) J.to_list
        else None)
      (read_events events)
  in
  (match status_rows with
  | [ [ row ] ] -> Alcotest.(check bool) "status event row" true (warm_of row = Some (J.Bool true))
  | _ -> Alcotest.fail "expected one status event with one row");
  (match J.parse (String.trim (read_file status)) with
  | Ok doc -> (
    match Option.bind (J.member "campaigns" doc) J.to_list with
    | Some [ row ] -> Alcotest.(check bool) "status file row" true (warm_of row = Some (J.Bool true))
    | _ -> Alcotest.fail "expected one status file row")
  | Error e -> Alcotest.fail e);
  let snapshot = read_file state in
  let rec mentions_warm i =
    i + 6 <= String.length snapshot && (String.sub snapshot i 6 = {|"warm"|} || mentions_warm (i + 1))
  in
  Alcotest.(check bool) "not persisted" false (mentions_warm 0);
  remove_files [ state; control; events; status ]

(* --- telemetry health machine ------------------------------------------- *)

module T = Service.Telemetry

let tslice ?(cov = 0.0) ?(crashes = 0) ?(retransmits = 0) () =
  {
    Obs.Progress.sl_coverage = cov;
    sl_useful = 1000;
    sl_replay = 100;
    sl_solver_queries = 10;
    sl_frontier_depths = [ 1; 3; 5 ];
    sl_crashes = crashes;
    sl_retransmits = retransmits;
  }

let test_telemetry_validation () =
  (match T.create { T.default_config with T.stall_slices = 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "stall_slices 0 must be rejected");
  match T.create { T.default_config with T.cadence_slices = 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cadence_slices 0 must be rejected"

let test_telemetry_stall_transitions () =
  let t = T.create T.default_config in
  let ob ?cov ?(done_ = false) () =
    T.observe t ~name:"c" ~runnable:[ "c" ] ~done_ (tslice ?cov ())
  in
  Alcotest.(check (list unit)) "first grant: no transitions" []
    (List.map (fun _ -> ()) (ob ~cov:0.1 ()));
  Alcotest.(check bool) "healthy while gaining" true (T.health t "c" = Some T.Healthy);
  (* exactly stall_slices dry grants flip it, and only the flipping
     grant reports a transition *)
  let k = T.default_config.T.stall_slices in
  let trs = List.concat (List.init k (fun _ -> ob ~cov:0.1 ())) in
  (match trs with
  | [ { T.tr_name = "c"; tr_from = T.Healthy; tr_to = T.Stalled } ] -> ()
  | l -> Alcotest.failf "expected one healthy->stalled transition, got %d" (List.length l));
  Alcotest.(check bool) "stalled" true (T.health t "c" = Some T.Stalled);
  (* a new coverage gain recovers it *)
  (match ob ~cov:0.2 () with
  | [ { T.tr_from = T.Stalled; tr_to = T.Healthy; _ } ] -> ()
  | l -> Alcotest.failf "expected one stalled->healthy transition, got %d" (List.length l));
  (* a finished campaign is done, not stalled, no matter how dry *)
  for _ = 1 to k + 1 do
    ignore (ob ~cov:0.2 ~done_:true ())
  done;
  Alcotest.(check bool) "done reads healthy" true (T.health t "c" = Some T.Healthy)

let test_telemetry_degraded_precedence () =
  let t = T.create T.default_config in
  (* dry AND faulty slices: the fault EWMA above threshold must win over
     the stall signal *)
  for _ = 1 to T.default_config.T.stall_slices + 1 do
    ignore (T.observe t ~name:"c" ~runnable:[ "c" ] ~done_:false (tslice ~crashes:5 ~retransmits:2 ()))
  done;
  Alcotest.(check bool) "degraded beats stalled" true (T.health t "c" = Some T.Degraded)

let test_telemetry_starvation_watchdog () =
  let t = T.create T.default_config in
  let runnable = [ "a"; "b" ] in
  ignore (T.observe t ~name:"a" ~runnable ~done_:false (tslice ~cov:0.1 ()));
  (* grant only b: with K = 2 runnable campaigns, a's gap exceeds K on
     the third consecutive b-grant *)
  let trs =
    List.concat
      (List.init 3 (fun i ->
           T.observe t ~name:"b" ~runnable ~done_:false (tslice ~cov:(0.1 +. (0.1 *. float_of_int i)) ())))
  in
  (match List.filter (fun tr -> tr.T.tr_name = "a") trs with
  | [ { T.tr_from = T.Healthy; tr_to = T.Starved; _ } ] -> ()
  | l -> Alcotest.failf "expected one a:healthy->starved transition, got %d" (List.length l));
  Alcotest.(check bool) "a starved" true (T.health t "a" = Some T.Starved);
  (* a campaign never granted a slice has no entry and is never judged *)
  Alcotest.(check (option unit)) "unknown name unjudged" None
    (Option.map (fun _ -> ()) (T.health t "ghost"))

let test_telemetry_status_file () =
  let t = T.create { T.default_config with T.cadence_slices = 2;
                     status_file = Some (Filename.temp_file "tele" ".status.json") } in
  Alcotest.(check bool) "not due at creation" false (T.due t);
  ignore (T.observe t ~name:"c" ~runnable:[ "c" ] ~done_:false (tslice ~cov:0.1 ()));
  Alcotest.(check bool) "not due after one slice" false (T.due t);
  ignore (T.observe t ~name:"c" ~runnable:[ "c" ] ~done_:false (tslice ~cov:0.2 ()));
  Alcotest.(check bool) "due at the cadence" true (T.due t);
  let rows =
    [
      ( "c",
        J.Obj
          [
            ("name", J.Str "c");
            ("paths", J.Num 40.0);
            ("errors", J.Num 2.0);
            ("instructions", J.Num 2000.0);
            ("slices", J.Num 2.0);
          ] );
    ]
  in
  T.write_status t ~rows ~metrics:None;
  Alcotest.(check bool) "write resets the cadence clock" false (T.due t);
  (* read the document back through the public parser *)
  let file = Filename.temp_file "tele2" ".status.json" in
  let t2 = T.create { T.default_config with T.status_file = Some file } in
  ignore (T.observe t2 ~name:"c" ~runnable:[ "c" ] ~done_:false (tslice ~cov:0.1 ()));
  T.write_status t2 ~rows ~metrics:None;
  let ic = open_in_bin file in
  let doc =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove file;
  match J.parse (String.trim doc) with
  | Error e -> Alcotest.failf "status file unparseable: %s" e
  | Ok j ->
    Alcotest.(check (option string)) "schema" (Some "cloud9-status/1")
      (Option.bind (J.member "schema" j) J.to_str);
    (match Option.bind (J.member "totals" j) (fun tt -> J.member "paths" tt) with
    | Some (J.Num f) -> Alcotest.(check int) "totals sum rows" 40 (int_of_float f)
    | _ -> Alcotest.fail "totals.paths missing");
    (match Option.bind (J.member "campaigns" j) J.to_list with
    | Some [ row ] ->
      Alcotest.(check (option string)) "row health" (Some "healthy")
        (Option.bind (J.member "health" row) J.to_str);
      Alcotest.(check bool) "row progress embedded" true (J.member "progress" row <> None)
    | _ -> Alcotest.fail "expected one campaign row")

(* A status document cut at every length or hit by 200 seeded byte
   substitutions: the parser [cloud9 top] reads it with returns [Ok] or
   [Error] and never raises, and [cloud9 top --once] on a cut file exits
   1 with a message instead of an uncaught exception. *)
let test_status_file_corruption () =
  let file = tmp_file ".status.json" in
  let t = T.create { T.default_config with T.status_file = Some file } in
  ignore (T.observe t ~name:"c" ~runnable:[ "c" ] ~done_:false (tslice ~cov:0.1 ()));
  T.write_status t ~rows:[ ("c", J.Obj [ ("name", J.Str "c"); ("paths", J.Num 40.0) ]) ]
    ~metrics:None;
  let text = In_channel.with_open_bin file In_channel.input_all in
  Alcotest.(check bool) "intact status parses" true (Result.is_ok (J.parse (String.trim text)));
  let total what s =
    match J.parse s with
    | Ok _ | Error _ -> ()
    | exception e -> Alcotest.failf "Json.parse raised %s on %s" (Printexc.to_string e) what
  in
  for n = 0 to String.length text - 1 do
    total (Printf.sprintf "a %d-byte prefix" n) (String.sub text 0 n)
  done;
  let rng = Random.State.make [| 26 |] in
  for k = 1 to 200 do
    let b = Bytes.of_string text in
    Bytes.set b (Random.State.int rng (Bytes.length b)) (Char.chr (Random.State.int rng 256));
    total (Printf.sprintf "substitution %d: %S" k (Bytes.to_string b)) (Bytes.to_string b)
  done;
  let exe = "../bin/cloud9.exe" in
  if Sys.file_exists exe then begin
    Out_channel.with_open_bin file (fun oc ->
        output_string oc (String.sub text 0 (String.length text / 2)));
    let err = tmp_file ".err" in
    let code =
      Sys.command
        (Printf.sprintf "%s top --once %s >/dev/null 2>%s" exe (Filename.quote file)
           (Filename.quote err))
    in
    let msg = In_channel.with_open_bin err In_channel.input_all in
    Sys.remove err;
    Alcotest.(check int) "top --once on a cut file exits 1" 1 code;
    Alcotest.(check bool)
      (Printf.sprintf "with a message: %S" msg)
      true
      (String.starts_with ~prefix:"cloud9 top: " msg)
  end;
  Sys.remove file

(* --- report CLI: missing files and --diff ------------------------------- *)

let test_report_cli () =
  let exe = "../bin/cloud9.exe" in
  if Sys.file_exists exe then begin
    let run args =
      Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" exe (String.concat " " args))
    in
    (* a missing metrics file is a clear non-zero failure, not a crash *)
    Alcotest.(check bool) "missing file rejected" true
      (run [ "report"; "/nonexistent/metrics.jsonl" ] <> 0);
    (* an empty (truncated) file is rejected too *)
    let empty = Filename.temp_file "report" ".jsonl" in
    Alcotest.(check bool) "empty file rejected" true (run [ "report"; empty ] <> 0);
    Sys.remove empty;
    (* --diff: identical artifacts exit 0, a seeded regression exits 1 *)
    let artifact ~ok =
      J.Obj [ ("bench", J.Str "t"); ("paths", J.Num 5.0); ("ok", J.Bool ok) ]
    in
    let write v =
      let f = Filename.temp_file "artifact" ".json" in
      let oc = open_out f in
      output_string oc (J.to_string v);
      close_out oc;
      f
    in
    let a = write (artifact ~ok:true) in
    let b = write (artifact ~ok:false) in
    Alcotest.(check int) "identical diff exits 0" 0 (run [ "report"; "--diff"; a; a ]);
    Alcotest.(check bool) "seeded regression exits non-zero" true
      (run [ "report"; "--diff"; a; b ] <> 0);
    (* --diff against a missing artifact is a clear failure *)
    Alcotest.(check bool) "diff with missing file rejected" true
      (run [ "report"; "--diff"; a; "/nonexistent/b.json" ] <> 0);
    Sys.remove a;
    Sys.remove b
  end

let () =
  Alcotest.run "service"
    [
      ( "path codec",
        Alcotest.test_case "parse errors" `Quick test_path_parse_errors
        :: qsuite [ prop_path_roundtrip ] );
      ("json codec", qsuite [ prop_json_roundtrip ]);
      ( "validate",
        [
          Alcotest.test_case "rejections" `Quick test_validate_rejections;
          Alcotest.test_case "cli flags" `Quick test_cli_flag_rejections;
          Alcotest.test_case "json integers and domain counts" `Quick test_validate_json_ints;
        ] );
      ("scheduler", [ Alcotest.test_case "round robin" `Quick test_scheduler_round_robin ]);
      ( "snapshot",
        [
          Alcotest.test_case "json roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "save/load/corrupt/version" `Quick test_snapshot_save_load;
          Alcotest.test_case "hex" `Quick test_hex_roundtrip;
          Alcotest.test_case "torn save" `Quick test_snapshot_torn_save;
          Alcotest.test_case "corruption never raises" `Quick test_snapshot_corruption_total;
        ] );
      ( "frontier",
        [
          Alcotest.test_case "serialize/reimport differential" `Quick
            test_export_serialize_reimport_differential;
        ] );
      ( "control",
        [
          Alcotest.test_case "command parsing" `Quick test_control_parse;
          Alcotest.test_case "corruption never raises" `Quick test_control_corruption_total;
          Alcotest.test_case "daemon integration" `Quick test_daemon_control_integration;
        ] );
      ( "restore",
        [
          Alcotest.test_case "checkpoint/kill/restore differential" `Quick
            test_checkpoint_kill_restore_differential;
          Alcotest.test_case "incremental checkpoint bytes" `Quick
            test_incremental_checkpoint_bytes;
        ] );
      ("fairness", [ Alcotest.test_case "multi-tenant progress" `Quick test_multi_tenant_progress ]);
      ( "warm",
        [
          Alcotest.test_case "eviction past the limit" `Quick test_warm_eviction;
          Alcotest.test_case "kill/restore while warm" `Quick test_warm_kill_restore;
          Alcotest.test_case "pause frees the slot" `Quick (test_warm_slot_freed ~cancel:false);
          Alcotest.test_case "cancel frees the slot" `Quick (test_warm_slot_freed ~cancel:true);
          Alcotest.test_case "summary rows" `Quick test_warm_summary_rows;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "config validation" `Quick test_telemetry_validation;
          Alcotest.test_case "stall transitions" `Quick test_telemetry_stall_transitions;
          Alcotest.test_case "degraded precedence" `Quick test_telemetry_degraded_precedence;
          Alcotest.test_case "starvation watchdog" `Quick test_telemetry_starvation_watchdog;
          Alcotest.test_case "status file" `Quick test_telemetry_status_file;
          Alcotest.test_case "status file corruption" `Quick test_status_file_corruption;
        ] );
      ("report cli", [ Alcotest.test_case "missing files + --diff" `Quick test_report_cli ]);
    ]
