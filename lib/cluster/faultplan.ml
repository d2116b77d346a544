(* Declarative fault schedules for the cluster simulation.

   A plan is data: crash worker [victim] at tick [at_tick] (optionally
   rejoining [rejoin_after] ticks later with a fresh, empty engine), drop /
   duplicate / delay messages with seeded pseudo-randomness, and partition
   links between worker pairs for a tick window.  The coordinator
   ({!Transport}) consults the plan's [runtime] each tick for both cluster
   backends; everything is deterministic given the seed, so a faulty run
   is exactly reproducible.

   The model is crash-stop with amnesia (paper section 3.1: workers are
   disposable because any subtree can be reconstructed by replaying its
   root path): a crashed worker loses its frontier, snapshot cache, and
   all statistics not yet reported to the load balancer.  Rejoining
   creates a brand-new worker in the same slot. *)

type crash = {
  victim : int;               (* worker id *)
  at_tick : int;
  rejoin_after : int option;  (* None = permanent departure *)
}

type partition = {
  p_a : int;
  p_b : int;
  p_from : int;               (* first tick the link is down *)
  p_until : int;              (* first tick the link is up again *)
}

type t = {
  crashes : crash list;
  drop_prob : float;          (* P(message lost in transit) *)
  dup_prob : float;           (* P(message delivered twice) *)
  delay_prob : float;         (* P(extra delivery delay) *)
  max_extra_delay : int;      (* extra delay drawn from [1, max] ticks *)
  partitions : partition list;
  seed : int;
}

let none =
  {
    crashes = [];
    drop_prob = 0.0;
    dup_prob = 0.0;
    delay_prob = 0.0;
    max_extra_delay = 4;
    partitions = [];
    seed = 7;
  }

let create ?(crashes = []) ?(drop_prob = 0.0) ?(dup_prob = 0.0) ?(delay_prob = 0.0)
    ?(max_extra_delay = 4) ?(partitions = []) ?(seed = 7) () =
  { crashes; drop_prob; dup_prob; delay_prob; max_extra_delay; partitions; seed }

let crash ?rejoin_after victim ~at_tick = { victim; at_tick; rejoin_after }

let is_faultless p =
  p.crashes = [] && p.partitions = []
  && p.drop_prob = 0.0 && p.dup_prob = 0.0 && p.delay_prob = 0.0

(* A schedule entry that references a worker slot outside the cluster, or
   a rejoin delay that cannot elapse, would silently never fire — the run
   would look fault-tolerant while testing nothing.  Reject such plans
   loudly before the run starts. *)
let validate p ~nworkers =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let rec check = function
    | [] ->
      let bad_pair pt = pt.p_a < 0 || pt.p_a >= nworkers || pt.p_b < 0 || pt.p_b >= nworkers in
      (match List.find_opt bad_pair p.partitions with
      | Some pt ->
        err "fault plan partitions link %d<->%d, but worker ids range over 0..%d" pt.p_a pt.p_b
          (nworkers - 1)
      | None -> Ok ())
    | c :: rest ->
      if c.victim < 0 || c.victim >= nworkers then
        err "fault plan crashes worker %d, but the cluster has %d worker slots (ids 0..%d)"
          c.victim nworkers (nworkers - 1)
      else if c.at_tick < 0 then
        err "fault plan crashes worker %d at negative tick %d" c.victim c.at_tick
      else begin
        match c.rejoin_after with
        | Some d when d <= 0 ->
          err
            "fault plan rejoins worker %d %d tick(s) after its crash; the rejoin must come \
             strictly after the crash (delay >= 1)"
            c.victim d
        | Some _ | None -> check rest
      end
  in
  check p.crashes

(* The last tick at which the plan crashes or rejoins a worker: after it,
   a cluster with no live worker can never revive, so a runtime may stop
   instead of spinning (graceful degradation). *)
let horizon p =
  List.fold_left
    (fun acc c -> max acc (c.at_tick + Option.value ~default:0 c.rejoin_after))
    0 p.crashes

(* --- runtime ------------------------------------------------------------- *)

type fate =
  | Deliver of int   (* extra delay in ticks (0 = on time) *)
  | Drop
  | Duplicate of int (* delivered twice; the copy trails by this many ticks *)

type runtime = {
  plan : t;
  rng : Random.State.t;
  crash_at : (int, int list) Hashtbl.t;  (* tick -> victims *)
  rejoin_at : (int, int list) Hashtbl.t; (* tick -> returning workers *)
}

let make plan =
  let crash_at = Hashtbl.create 8 and rejoin_at = Hashtbl.create 8 in
  let push tbl k v =
    Hashtbl.replace tbl k (v :: (Option.value ~default:[] (Hashtbl.find_opt tbl k)))
  in
  List.iter
    (fun c ->
      push crash_at c.at_tick c.victim;
      match c.rejoin_after with
      | Some d when d > 0 -> push rejoin_at (c.at_tick + d) c.victim
      | Some _ | None -> ())
    plan.crashes;
  { plan; rng = Random.State.make [| plan.seed; 0x9e3779b9 |]; crash_at; rejoin_at }

let crashes_at rt ~tick = Option.value ~default:[] (Hashtbl.find_opt rt.crash_at tick)
let rejoins_at rt ~tick = Option.value ~default:[] (Hashtbl.find_opt rt.rejoin_at tick)

(* The load balancer participates in message exchanges as endpoint [-1];
   partitions only ever cut worker-to-worker links. *)
let lb = -1

let partitioned rt ~tick ~src ~dst =
  List.exists
    (fun p ->
      tick >= p.p_from && tick < p.p_until
      && ((p.p_a = src && p.p_b = dst) || (p.p_a = dst && p.p_b = src)))
    rt.plan.partitions

(* Decide the fate of one message entering the network.  Consulted once
   per send, in simulation order, so a fixed seed fixes the whole run. *)
let fate rt ~tick ~src ~dst =
  let p = rt.plan in
  if partitioned rt ~tick ~src ~dst then Drop
  else begin
    let draw prob = prob > 0.0 && Random.State.float rt.rng 1.0 < prob in
    let dropped = draw p.drop_prob in
    let duplicated = draw p.dup_prob in
    let extra =
      if draw p.delay_prob then 1 + Random.State.int rt.rng (max 1 p.max_extra_delay) else 0
    in
    (* all three draws happen unconditionally so that toggling one fault
       class does not reshuffle the pseudo-random stream of the others *)
    if dropped then Drop else if duplicated then Duplicate (1 + extra) else Deliver extra
  end
