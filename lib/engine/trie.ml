(* A trie over execution-tree paths with subtree counts, supporting
   uniform random-path descent.  The one shared implementation behind the
   random-path searcher's state population and the cluster worker's
   frontier/fence containers: payloads are whatever the client stores
   (alive states, frontier entries, virtual nodes), keyed by the node's
   root path. *)

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

let fold f t acc =
  let acc = ref acc in
  iter (fun x -> acc := f x !acc) t;
  !acc

(* The reverse of [iter]'s order: children last to first, each subtree
   reversed, then the node's own payload.  Empty subtrees are skipped. *)
let rec iter_rev f t =
  if t.count > 0 then begin
    iter_rev_children f t.children;
    match t.payload with Some x -> f x | None -> ()
  end

and iter_rev_children f = function
  | [] -> ()
  | (_, n) :: rest ->
    iter_rev_children f rest;
    iter_rev f n

let rec find_rev p t =
  if t.count = 0 then None
  else
    match find_rev_children p t.children with
    | Some _ as r -> r
    | None -> ( match t.payload with Some x when p x -> t.payload | _ -> None)

and find_rev_children p = function
  | [] -> None
  | (_, n) :: rest -> (
    match find_rev_children p rest with Some _ as r -> r | None -> find_rev p n)

(* Nodes plus edges of the trie skeleton: the byte size of a preorder
   serialization with one structure byte per node and one choice byte per
   edge. *)
let structure_size t =
  let rec count node =
    List.fold_left (fun acc (_, child) -> acc + 1 + count child) 1 node.children
  in
  count t
