(* The metrics registry: named counters, gauges and fixed-bucket
   histograms, optionally labeled (a labeled family is the same name
   registered under several label sets, e.g. solver_queries{tier=...}).

   Hot-path cost is the design constraint: incrementing a counter is a
   single mutable-field update on a handle resolved once at component
   construction, so instrumented code never pays a lookup per event.
   Registry lookups happen only at registration and export time.

   Snapshots are immutable copies supporting [diff]: counters and
   histogram buckets subtract (rate over an interval), gauges keep the
   newer sample.  A histogram's copy is made once per change and shared
   by the snapshots taken until the next observation, so polling a
   registry costs O(changed histograms), not O(buckets). *)

type labels = (string * string) list

type counter = { mutable c : int }
type gauge = { mutable g : float }

type value =
  | Vcounter of int
  | Vgauge of float
  | Vhistogram of { vbounds : float array; vcounts : int array; vsum : float; vcount : int }

type histogram = {
  bounds : float array; (* upper bounds, ascending; implicit +inf last; never written *)
  counts : int array;   (* length = Array.length bounds + 1 *)
  mutable hsum : float;
  mutable hcount : int;
  mutable snap : value option; (* the current contents' snapshot, once taken *)
}

type instrument = Counter of counter | Gauge of gauge | Histogram of histogram

type t = {
  tbl : (string, instrument) Hashtbl.t; (* key = name + rendered labels *)
  mutable order : (string * labels * instrument) list; (* newest first *)
}

let create () = { tbl = Hashtbl.create 64; order = [] }

let render_key name labels =
  match labels with
  | [] -> name
  | _ ->
    let ordered = List.sort compare labels in
    name ^ "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ordered)
    ^ "}"

let register t name labels make match_existing =
  let key = render_key name labels in
  match Hashtbl.find_opt t.tbl key with
  | Some existing -> (
    match match_existing existing with
    | Some x -> x
    | None -> invalid_arg (Printf.sprintf "Metrics: %s re-registered with another type" key))
  | None ->
    let x, instr = make () in
    Hashtbl.replace t.tbl key instr;
    t.order <- (name, labels, instr) :: t.order;
    x

let counter t ?(labels = []) name =
  register t name labels
    (fun () ->
      let c = { c = 0 } in
      (c, Counter c))
    (function Counter c -> Some c | _ -> None)

let gauge t ?(labels = []) name =
  register t name labels
    (fun () ->
      let g = { g = 0.0 } in
      (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)

let default_buckets = [| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0; 256.0 |]

(* Exponential (x2) bounds for wall-clock latencies in nanoseconds:
   100ns .. ~6.7s in 27 buckets.  Every latency_ns histogram in the
   profiling layer uses these, so cross-registry merges and the
   hand-rolled Atomic bucket array in Smt.Expr line up bucket-for-
   bucket. *)
let latency_ns_buckets = Array.init 27 (fun i -> 100.0 *. Float.of_int (1 lsl i))

let histogram t ?(labels = []) ?(buckets = default_buckets) name =
  register t name labels
    (fun () ->
      let h =
        {
          bounds = Array.copy buckets;
          counts = Array.make (Array.length buckets + 1) 0;
          hsum = 0.0;
          hcount = 0;
          snap = None;
        }
      in
      (h, Histogram h))
    (function Histogram h -> Some h | _ -> None)

(* --- hot-path updates -------------------------------------------------- *)

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let counter_value c = c.c
let set g v = g.g <- v
let gauge_value g = g.g

let observe h v =
  let rec slot i = if i >= Array.length h.bounds || v <= h.bounds.(i) then i else slot (i + 1) in
  let i = slot 0 in
  h.counts.(i) <- h.counts.(i) + 1;
  h.hsum <- h.hsum +. v;
  h.hcount <- h.hcount + 1;
  h.snap <- None

(* Merge [src]'s instruments into [into]: counters and histogram buckets
   add, gauges take [src]'s sample.  Instruments missing from [into] are
   registered on the fly (in [src]'s registration order), so a private
   per-domain registry folds losslessly into the shared one. *)
let merge_into ~into src =
  List.iter
    (fun (name, labels, instr) ->
      match instr with
      | Counter c -> add (counter into ~labels name) c.c
      | Gauge g -> set (gauge into ~labels name) g.g
      | Histogram h ->
        let dh = histogram into ~labels ~buckets:h.bounds name in
        if Array.length dh.counts = Array.length h.counts then begin
          Array.iteri (fun i c -> dh.counts.(i) <- dh.counts.(i) + c) h.counts;
          dh.hsum <- dh.hsum +. h.hsum;
          dh.hcount <- dh.hcount + h.hcount;
          dh.snap <- None
        end)
    (List.rev src.order)

(* --- snapshots --------------------------------------------------------- *)

type sample = { s_name : string; s_labels : labels; s_value : value }

type snapshot = sample list (* registration order *)

let snapshot t =
  List.rev_map
    (fun (name, labels, instr) ->
      let v =
        match instr with
        | Counter c -> Vcounter c.c
        | Gauge g -> Vgauge g.g
        | Histogram h -> (
          match h.snap with
          | Some v -> v
          | None ->
            let v =
              Vhistogram
                { vbounds = h.bounds; vcounts = Array.copy h.counts; vsum = h.hsum; vcount = h.hcount }
            in
            h.snap <- Some v;
            v)
      in
      { s_name = name; s_labels = labels; s_value = v })
    t.order

(* [diff ~base cur]: counters and histograms report the delta since
   [base]; gauges keep the current sample.  Samples missing from [base]
   pass through unchanged. *)
let diff ~base cur =
  let key s = render_key s.s_name s.s_labels in
  let base_tbl = Hashtbl.create 32 in
  List.iter (fun s -> Hashtbl.replace base_tbl (key s) s.s_value) base;
  List.map
    (fun s ->
      match (s.s_value, Hashtbl.find_opt base_tbl (key s)) with
      | Vcounter cur_v, Some (Vcounter base_v) -> { s with s_value = Vcounter (cur_v - base_v) }
      | Vhistogram h, Some (Vhistogram b) when Array.length h.vcounts = Array.length b.vcounts ->
        {
          s with
          s_value =
            Vhistogram
              {
                h with
                vcounts = Array.mapi (fun i c -> c - b.vcounts.(i)) h.vcounts;
                vsum = h.vsum -. b.vsum;
                vcount = h.vcount - b.vcount;
              };
        }
      | _ -> s)
    cur

let find snap name labels =
  List.find_opt (fun s -> s.s_name = name && List.sort compare s.s_labels = List.sort compare labels) snap

(* Estimate the [q]-quantile of a histogram sample by linear
   interpolation inside the bucket holding the target rank (the standard
   Prometheus histogram_quantile estimator).  The first bucket's lower
   edge is taken as 0; a target landing in the +inf overflow bucket is
   clamped to the last finite bound (we cannot interpolate past it).
   [None] for non-histograms and empty histograms. *)
let percentile v q =
  match v with
  | Vhistogram { vbounds; vcounts; vcount; _ } when vcount > 0 ->
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let target = q *. float_of_int vcount in
    let nfinite = Array.length vbounds in
    let last_bound = if nfinite = 0 then 0.0 else vbounds.(nfinite - 1) in
    let rec go i cum =
      if i >= Array.length vcounts then Some last_bound
      else
        let cum' = cum + vcounts.(i) in
        if float_of_int cum' >= target && vcounts.(i) > 0 then
          if i >= nfinite then Some last_bound
          else begin
            let lower = if i = 0 then 0.0 else vbounds.(i - 1) in
            let upper = vbounds.(i) in
            let frac = (target -. float_of_int cum) /. float_of_int vcounts.(i) in
            Some (lower +. ((upper -. lower) *. frac))
          end
        else go (i + 1) cum'
    in
    go 0 0
  | _ -> None

(* --- JSONL export ------------------------------------------------------ *)

let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

let sample_to_json s =
  let base = [ ("metric", Json.Str s.s_name); ("labels", labels_json s.s_labels) ] in
  match s.s_value with
  | Vcounter c -> Json.Obj (base @ [ ("type", Json.Str "counter"); ("value", Json.Num (float_of_int c)) ])
  | Vgauge g -> Json.Obj (base @ [ ("type", Json.Str "gauge"); ("value", Json.Num g) ])
  | Vhistogram h ->
    Json.Obj
      (base
      @ [
          ("type", Json.Str "histogram");
          ("value", Json.Num h.vsum);
          ("count", Json.Num (float_of_int h.vcount));
          ("bounds", Json.Arr (Array.to_list (Array.map (fun b -> Json.Num b) h.vbounds)));
          ("buckets", Json.Arr (Array.to_list (Array.map (fun c -> Json.Num (float_of_int c)) h.vcounts)));
        ])

let write_jsonl buf snap =
  List.iter
    (fun s ->
      Json.write buf (sample_to_json s);
      Buffer.add_char buf '\n')
    snap

(* --- Prometheus text exposition ---------------------------------------- *)

(* Label values in the exposition format live inside double quotes with
   backslash, quote and newline escaped — a different grammar from JSON
   strings. *)
let prom_labels buf labels =
  match labels with
  | [] -> ()
  | _ ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        String.iter
          (fun c ->
            match c with
            | '\\' -> Buffer.add_string buf "\\\\"
            | '"' -> Buffer.add_string buf "\\\""
            | '\n' -> Buffer.add_string buf "\\n"
            | c -> Buffer.add_char buf c)
          v;
        Buffer.add_char buf '"')
      (List.sort compare labels);
    Buffer.add_char buf '}'

let prom_line buf name labels value =
  Buffer.add_string buf name;
  prom_labels buf labels;
  Buffer.add_char buf ' ';
  Buffer.add_string buf (if Float.is_finite value then Json.number_to_string value else "+Inf");
  Buffer.add_char buf '\n'

(* Text exposition of a snapshot, one # TYPE header per metric family
   (emitted at the family's first sample; labeled variants follow under
   it).  Histograms expand to the conventional cumulative
   [_bucket{le=...}] series plus [_sum] and [_count]. *)
let write_prometheus buf snap =
  let typed = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let type_header kind =
        if not (Hashtbl.mem typed s.s_name) then begin
          Hashtbl.replace typed s.s_name ();
          Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" s.s_name kind)
        end
      in
      match s.s_value with
      | Vcounter c ->
        type_header "counter";
        prom_line buf s.s_name s.s_labels (float_of_int c)
      | Vgauge g ->
        type_header "gauge";
        prom_line buf s.s_name s.s_labels g
      | Vhistogram h ->
        type_header "histogram";
        let cum = ref 0 in
        Array.iteri
          (fun i c ->
            cum := !cum + c;
            let le =
              if i < Array.length h.vbounds then Json.number_to_string h.vbounds.(i) else "+Inf"
            in
            prom_line buf (s.s_name ^ "_bucket")
              (s.s_labels @ [ ("le", le) ])
              (float_of_int !cum))
          h.vcounts;
        prom_line buf (s.s_name ^ "_sum") s.s_labels h.vsum;
        prom_line buf (s.s_name ^ "_count") s.s_labels (float_of_int h.vcount))
    snap
