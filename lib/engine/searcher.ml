(* Exploration strategies: which candidate state to execute next.

   Cloud9 workers run the same searchers KLEE ships (paper section 7:
   "an interleaving of random-path and coverage-optimized strategies");
   the cluster layer coordinates them globally via the coverage overlay.

   Every strategy is a pick policy over one core (DESIGN.md, "Searcher
   core"), which the cluster worker also uses as its frontier:
   - a slot table holds the candidates: live states, or path-only
     ("virtual") nodes with their client's tag; the count-annotated
     {!Trie} maps each candidate's path (its unique key) to its slot and
     drives the random-path descent;
   - dfs/bfs thread a doubly-linked stack/queue through the slots;
   - coverage-optimized weights live in an array-backed sum tree over
     the slots: an O(log n) weighted pick.  A virtual slot weighs 0, so
     a weighted pick never lands on one; with nothing but virtual slots
     it is a random-path pick;
   - [select] checks the chosen slot out instead of removing it (a
     virtual one leaves at once).  An [add] whose state carries
     physically the checked-out newest-first path list is the same node
     stepped without forking, and is written back into the slot.  Any
     other [add], [select] or [remove] first retires the checkout,
     freeing the slot. *)

type 'env t = {
  add : 'env State.t -> unit;
  select : unit -> 'env State.t option; (* checks the state out *)
  remove : Path.t -> unit;
  size : unit -> int; (* the checked-out state excluded *)
}

type policy =
  | Dfs
  | Bfs
  | Random_path of Random.State.t
  | Cov_opt of Random.State.t
  | Interleaved of Random.State.t

type ('env, 'tag) candidate = Live of 'env State.t | Virtual of Path.t * 'tag

type ('env, 'tag) core = {
  policy : policy;
  keep_paths : bool;
      (* a live slot keeps its path too.  The closure searchers never read
         it back: rebuilt when the slot is freed, it dies young instead of
         being promoted with the state.  The worker's digests hand every
         path out on each status report, so its core keeps them. *)
  index : int Trie.t; (* path -> slot *)
  mutable cap : int;
  mutable states : 'env State.t option array; (* Some = live slot *)
  mutable tags : 'tag option array; (* Some = virtual slot *)
  mutable paths : Path.t array; (* root-first, or [] when not kept *)
  mutable next : int array; (* dfs/bfs order, or the free chain; -1 ends both *)
  mutable prev : int array;
  mutable sums : Float.Array.t; (* slot i's weight at leaf cap + i; node k = 2k + (2k + 1) *)
  mutable head : int;
  mutable tail : int;
  mutable free : int;
  mutable live : int; (* the checked-out slot excluded *)
  mutable out : int; (* checked-out slot, or -1 *)
  mutable cov_turn : bool; (* interleaved: the next pick is coverage-optimized *)
}

let ordered c = match c.policy with Dfs | Bfs -> true | _ -> false
let weighted c = match c.policy with Cov_opt _ | Interleaved _ -> true | _ -> false

(* States that recently covered new code weigh more: a proxy for
   "estimated distance to an uncovered line" (paper section 7).  A
   state's weight is fixed while it is queued; a virtual node weighs 0. *)
let weight = function
  | Some st -> 1.0 /. float_of_int (1 + st.State.steps - st.State.last_new_cover)
  | None -> 0.0

let set_weight c i w =
  let s = c.sums in
  let k = ref (c.cap + i) in
  Float.Array.set s !k w;
  while !k > 1 do
    k := !k / 2;
    Float.Array.set s !k (Float.Array.get s (2 * !k) +. Float.Array.get s ((2 * !k) + 1))
  done

let random_slot rng c = Option.get (Trie.random_pick rng c.index)

(* Descend by the running target; a zero right sibling sends float
   slack left, so the leaf reached always has positive weight.  A zero
   total (only virtual slots) makes it a random-path pick. *)
let weighted_slot rng c =
  let s = c.sums in
  if Float.Array.get s 1 = 0.0 then random_slot rng c
  else begin
    let target = ref (Random.State.float rng (Float.Array.get s 1)) in
    let k = ref 1 in
    while !k < c.cap do
      let l = 2 * !k in
      let wl = Float.Array.get s l in
      if !target < wl || Float.Array.get s (l + 1) = 0.0 then k := l
      else begin
        target := !target -. wl;
        k := l + 1
      end
    done;
    !k - c.cap
  end

(* Doubling keeps the sum tree's leaves at [cap, 2 cap); the new slots
   join the (empty) free chain in ascending order. *)
let grow c =
  let old = c.cap and cap = max 16 (2 * c.cap) in
  let extend a fill = Array.append a (Array.make (cap - old) fill) in
  c.states <- extend c.states None;
  c.tags <- extend c.tags None;
  c.paths <- extend c.paths [];
  c.next <- extend c.next (-1);
  c.prev <- extend c.prev (-1);
  let s = Float.Array.make (2 * cap) 0.0 in
  Float.Array.blit c.sums old s cap old;
  for k = cap - 1 downto 1 do
    Float.Array.set s k (Float.Array.get s (2 * k) +. Float.Array.get s ((2 * k) + 1))
  done;
  c.sums <- s;
  c.cap <- cap;
  for i = cap - 1 downto old do
    c.next.(i) <- c.free;
    c.free <- i
  done

(* dfs pushes at the head, bfs at the tail; both pop the head. *)
let link c i =
  let p, n = match c.policy with Dfs -> (-1, c.head) | _ -> (c.tail, -1) in
  c.prev.(i) <- p;
  c.next.(i) <- n;
  if p < 0 then c.head <- i else c.next.(p) <- i;
  if n < 0 then c.tail <- i else c.prev.(n) <- i

let unlink c i =
  let p = c.prev.(i) and n = c.next.(i) in
  if p < 0 then c.head <- n else c.next.(p) <- n;
  if n < 0 then c.tail <- p else c.prev.(n) <- p

(* Queue a live [state] or a virtual [tag] in slot [i], which is not in
   the ordering. *)
let store c i state tag =
  c.states.(i) <- state;
  c.tags.(i) <- tag;
  if weighted c then set_weight c i (weight state);
  if ordered c then link c i;
  c.live <- c.live + 1

let path_of c i =
  match (c.paths.(i), c.states.(i)) with [], Some st -> State.path st | p, _ -> p

(* Free slot [i], which is out of the ordering. *)
let release c i =
  ignore (Trie.remove c.index (path_of c i));
  c.states.(i) <- None;
  c.tags.(i) <- None;
  c.paths.(i) <- [];
  if weighted c then set_weight c i 0.0;
  c.next.(i) <- c.free;
  c.free <- i

let retire c =
  let i = c.out in
  if i >= 0 then begin
    c.out <- -1;
    release c i
  end

(* Queue a candidate at path [p], replacing the one there, if any. *)
let insert c p state tag =
  retire c;
  let keep = c.keep_paths || Option.is_some tag in
  match Trie.find c.index p with
  | Some i ->
    c.states.(i) <- state;
    c.tags.(i) <- tag;
    c.paths.(i) <- (if keep then p else []);
    if weighted c then set_weight c i (weight state)
  | None ->
    if c.free < 0 then grow c;
    let i = c.free in
    c.free <- c.next.(i);
    Trie.add c.index p i;
    if keep then c.paths.(i) <- p;
    store c i state tag

let add c st =
  let i = c.out in
  match if i >= 0 then c.states.(i) else None with
  | Some o when o.State.path == st.State.path ->
    c.out <- -1;
    store c i (Some st) None
  | _ -> insert c (State.path st) (Some st) None

(* Check a slot out; -1 when nothing is queued. *)
let checkout c =
  retire c;
  if c.live = 0 then -1
  else begin
    let i =
      match c.policy with
      | Dfs | Bfs -> c.head
      | Random_path rng -> random_slot rng c
      | Cov_opt rng -> weighted_slot rng c
      | Interleaved rng ->
        let cov = c.cov_turn in
        c.cov_turn <- not cov;
        if cov then weighted_slot rng c else random_slot rng c
    in
    if ordered c then unlink c i;
    c.live <- c.live - 1;
    c.out <- i;
    i
  end

let candidate c i =
  match (c.states.(i), c.tags.(i)) with
  | Some st, _ -> Live st
  | None, Some tag -> Virtual (c.paths.(i), tag)
  | None, None -> invalid_arg "Searcher: free slot"

let remove_slot c i =
  if ordered c then unlink c i;
  c.live <- c.live - 1;
  release c i

let remove c p =
  retire c;
  Option.iter (remove_slot c) (Trie.find c.index p)

let make ~keep_paths policy =
  let c =
    {
      policy;
      keep_paths;
      index = Trie.create ();
      cap = 0;
      states = [||];
      tags = [||];
      paths = [||];
      next = [||];
      prev = [||];
      sums = Float.Array.make 0 0.0;
      head = -1;
      tail = -1;
      free = -1;
      live = 0;
      out = -1;
      cov_turn = false;
    }
  in
  grow c;
  c

(* The closure searchers never hold a virtual slot, so the stored option
   is the answer. *)
let searcher policy =
  let c = make ~keep_paths:false policy in
  {
    add = add c;
    select = (fun () -> match checkout c with -1 -> None | i -> c.states.(i));
    remove = remove c;
    size = (fun () -> c.live);
  }

let dfs () = searcher Dfs
let bfs () = searcher Bfs
let random_path ~rng () = searcher (Random_path rng)
let coverage_optimized ~rng () = searcher (Cov_opt rng)

(* The searcher used in the paper's evaluation: random-path and
   coverage-optimized picks alternate, random-path first. *)
let default ~rng () = searcher (Interleaved rng)

let names = [ "dfs"; "bfs"; "random-path"; "cov-opt"; "interleaved"; "default" ]

let policy_of_name ~rng = function
  | "dfs" -> Dfs
  | "bfs" -> Bfs
  | "random-path" -> Random_path rng
  | "cov-opt" -> Cov_opt rng
  | "default" | "interleaved" -> Interleaved rng
  | other ->
    invalid_arg
      (Printf.sprintf "Searcher.of_name: unknown strategy %s (expected one of: %s)" other
         (String.concat ", " names))

let of_name ~rng name = searcher (policy_of_name ~rng name)

module Core = struct
  type nonrec ('env, 'tag) candidate = ('env, 'tag) candidate =
    | Live of 'env State.t
    | Virtual of Path.t * 'tag

  type ('env, 'tag) t = ('env, 'tag) core

  let of_name ~rng name = make ~keep_paths:true (policy_of_name ~rng name)
  let add = add
  let add_virtual c p tag = insert c p None (Some tag)

  (* A virtual node is never written back, so it leaves at once. *)
  let select c =
    match checkout c with
    | -1 -> None
    | i ->
      let x = candidate c i in
      if Option.is_none c.states.(i) then retire c;
      Some x

  let take c p =
    retire c;
    Trie.find c.index p
    |> Option.map (fun i ->
           let x = candidate c i in
           remove_slot c i;
           x)

  let find c p =
    match Trie.find c.index p with Some i when i <> c.out -> Some (candidate c i) | _ -> None

  let iter f c = Trie.iter (fun i -> if i <> c.out then f (path_of c i) (candidate c i)) c.index
  let size c = c.live
end
