(* A trie over execution-tree paths with subtree counts, supporting
   uniform random-path descent.  The one shared implementation behind
   the searcher core's path index (live and virtual candidates alike),
   the cluster worker's snapshot cache and ban set, and the job-tree
   encoding: payloads are whatever the client stores, keyed by the
   node's root path. *)

type 'a t = {
  mutable payload : 'a option;
  mutable children : (Path.choice * 'a t) list;
  mutable count : int; (* payloads in this subtree *)
}

let create () = { payload = None; children = []; count = 0 }

let size t = t.count

(* Returns true when a new payload was created (replacements must not
   inflate ancestor counts). *)
let rec add_fresh t path x =
  match path with
  | [] ->
    let fresh = t.payload = None in
    t.payload <- Some x;
    if fresh then t.count <- t.count + 1;
    fresh
  | c :: rest ->
    let child =
      match List.assoc_opt c t.children with
      | Some n -> n
      | None ->
        let n = create () in
        t.children <- (c, n) :: t.children;
        n
    in
    let fresh = add_fresh child rest x in
    if fresh then t.count <- t.count + 1;
    fresh

let add t path x = ignore (add_fresh t path x)

let rec find t path =
  match path with
  | [] -> t.payload
  | c :: rest -> (
    match List.assoc_opt c t.children with None -> None | Some child -> find child rest)

(* Returns true when a payload was removed. *)
let rec remove t path =
  match path with
  | [] ->
    if t.payload = None then false
    else begin
      t.payload <- None;
      t.count <- t.count - 1;
      true
    end
  | c :: rest -> (
    match List.assoc_opt c t.children with
    | None -> false
    | Some child ->
      let removed = remove child rest in
      if removed then begin
        t.count <- t.count - 1;
        if child.count = 0 then t.children <- List.remove_assoc c t.children
      end;
      removed)

(* Random-path descent (KLEE's strategy, paper section 7): from the root,
   choose uniformly among "the payload here" and each nonempty child, in
   that order.  Counts the options and indexes them in place, so the
   descent allocates nothing. *)
let rec random_pick rng t =
  let here = match t.payload with Some _ -> 1 | None -> 0 in
  let live = List.fold_left (fun k (_, n) -> if n.count > 0 then k + 1 else k) here t.children in
  if live = 0 then None
  else
    let r = Random.State.int rng live in
    if r < here then t.payload else random_pick rng (nth_live (r - here) t.children)

and nth_live i = function
  | [] -> invalid_arg "Trie.nth_live"
  | (_, n) :: rest ->
    if n.count = 0 then nth_live i rest else if i = 0 then n else nth_live (i - 1) rest

let iter f t =
  let rec go t =
    Option.iter f t.payload;
    List.iter (fun (_, n) -> go n) t.children
  in
  go t

(* The payload at the longest prefix of [path] that has one, with the
   rest of [path] below it: one descent. *)
let deepest t path =
  let rec go t path best =
    let best = match t.payload with Some x -> Some (x, path) | None -> best in
    match path with
    | [] -> best
    | c :: rest -> (
      match List.assoc_opt c t.children with None -> best | Some n -> go n rest best)
  in
  go t path None

(* Nodes plus edges of the trie skeleton: the byte size of a preorder
   serialization with one structure byte per node and one choice byte per
   edge. *)
let structure_size t =
  let rec count node =
    List.fold_left (fun acc (_, child) -> acc + 1 + count child) 1 node.children
  in
  count t
