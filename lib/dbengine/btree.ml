type node = { id : int; keys : int array; kind : kind }

and kind = Leaf of { values : int array } | Internal of { children : node array }

type t = {
  fanout : int;
  node_bytes : int;
  base_addr : int;
  mutable root : node;
  mutable next_id : int;
  mutable n_keys : int;
}

let new_node t keys kind =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  { id; keys; kind }

let create ?(fanout = 32) ~node_bytes ~base_addr () =
  if fanout < 4 then invalid_arg "Btree.create: fanout must be >= 4";
  if node_bytes <= 0 then invalid_arg "Btree.create: node_bytes must be positive";
  let t =
    { fanout; node_bytes; base_addr; root = { id = 0; keys = [||]; kind = Leaf { values = [||] } };
      next_id = 0; n_keys = 0 }
  in
  t.root <- new_node t [||] (Leaf { values = [||] });
  t

let addr_of t node = t.base_addr + (node.id * t.node_bytes)

let bulk_load t pairs =
  if t.n_keys <> 0 then invalid_arg "Btree.bulk_load: tree not empty";
  let n = Array.length pairs in
  if n = 0 then ()
  else begin
    for i = 1 to n - 1 do
      if fst pairs.(i) <= fst pairs.(i - 1) then
        invalid_arg "Btree.bulk_load: keys must be strictly increasing"
    done;
    let per_leaf = max 2 (t.fanout * 3 / 4) in
    (* Build the leaf level. *)
    let leaves = ref [] in
    let i = ref 0 in
    while !i < n do
      let len = min per_leaf (n - !i) in
      let keys = Array.init len (fun j -> fst pairs.(!i + j)) in
      let values = Array.init len (fun j -> snd pairs.(!i + j)) in
      leaves := new_node t keys (Leaf { values }) :: !leaves;
      i := !i + len
    done;
    let level = ref (Array.of_list (List.rev !leaves)) in
    (* Build internal levels until a single root remains.  Separator i of
       an internal node is the smallest key reachable under child i+1 —
       for internal children that is the minimum of the leftmost leaf, not
       the child's own first separator. *)
    let rec min_key node =
      match node.kind with
      | Leaf _ -> node.keys.(0)
      | Internal { children } -> min_key children.(0)
    in
    while Array.length !level > 1 do
      let children = !level in
      let m = Array.length children in
      let per_node = max 2 (t.fanout * 3 / 4) in
      let parents = ref [] in
      let j = ref 0 in
      while !j < m do
        (* Never leave a single orphan child for the last group: shrink the
           current group by one instead (per_node >= 3 keeps len >= 2). *)
        let remaining = m - !j in
        let len =
          if remaining <= per_node then remaining
          else if remaining - per_node = 1 then per_node - 1
          else per_node
        in
        let kids = Array.sub children !j len in
        let keys = Array.init (len - 1) (fun x -> min_key kids.(x + 1)) in
        parents := new_node t keys (Internal { children = kids }) :: !parents;
        j := !j + len
      done;
      level := Array.of_list (List.rev !parents)
    done;
    t.root <- !level.(0);
    t.n_keys <- n
  end

(* Index of the child to descend into: first separator > key determines
   the branch. *)
let child_index (keys : int array) key =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if key < keys.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

(* Slot of [key] in a leaf's sorted keys, or -1. *)
let leaf_slot (keys : int array) key =
  let lo = ref 0 and hi = ref (Array.length keys - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let k = keys.(mid) in
    if k = key then found := mid else if k < key then lo := mid + 1 else hi := mid - 1
  done;
  !found

(* The one root-to-leaf descent: calls [visit] on each node's address,
   root first, and hands the leaf's keys and values to [at_leaf]. *)
let rec descend t node key ~visit ~at_leaf =
  visit (addr_of t node);
  match node.kind with
  | Leaf { values } -> at_leaf node.keys values key
  | Internal { children } ->
      descend t children.(child_index node.keys key) key ~visit ~at_leaf

let lookup t key ~visit =
  descend t t.root key ~visit ~at_leaf:(fun keys values key ->
      let i = leaf_slot keys key in
      if i >= 0 then values.(i) else -1)

let find t key =
  descend t t.root key ~visit:ignore ~at_leaf:(fun keys values key ->
      let i = leaf_slot keys key in
      if i >= 0 then Some values.(i) else None)

let height t =
  let rec go node = match node.kind with Leaf _ -> 1 | Internal { children } -> 1 + go children.(0) in
  go t.root

let n_keys t = t.n_keys
let footprint_bytes t = t.next_id * t.node_bytes

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let rec check node depth =
    let sorted a =
      let ok = ref true in
      for i = 1 to Array.length a - 1 do
        if a.(i) <= a.(i - 1) then ok := false
      done;
      !ok
    in
    if not (sorted node.keys) then fail "Btree: node %d keys not strictly sorted" node.id;
    match node.kind with
    | Leaf { values } ->
        if Array.length values <> Array.length node.keys then
          fail "Btree: leaf %d keys/values arity mismatch" node.id;
        if Array.length node.keys > t.fanout then fail "Btree: leaf %d overfull" node.id;
        (depth, Array.length node.keys)
    | Internal { children } ->
        if Array.length children <> Array.length node.keys + 1 then
          fail "Btree: internal %d children arity mismatch" node.id;
        if Array.length children > t.fanout + 1 then fail "Btree: internal %d overfull" node.id;
        let depths = Array.map (fun c -> fst (check c (depth + 1))) children in
        Array.iter
          (fun d -> if d <> depths.(0) then fail "Btree: unbalanced under node %d" node.id)
          depths;
        (* Separator consistency: every key in child i+1 is >= keys.(i),
           every key in child i is < keys.(i). *)
        Array.iteri
          (fun i sep ->
            let rec min_key n =
              match n.kind with
              | Leaf _ -> if Array.length n.keys = 0 then sep else n.keys.(0)
              | Internal { children } -> min_key children.(0)
            in
            let rec max_key n =
              match n.kind with
              | Leaf _ ->
                  if Array.length n.keys = 0 then pred sep else n.keys.(Array.length n.keys - 1)
              | Internal { children } -> max_key children.(Array.length children - 1)
            in
            if max_key children.(i) >= sep then
              fail "Btree: separator %d violated on the left of node %d" sep node.id;
            if min_key children.(i + 1) < sep then
              fail "Btree: separator %d violated on the right of node %d" sep node.id)
          node.keys;
        (depth, Array.length node.keys)
  in
  ignore (check t.root 0);
  (* Count keys. *)
  let rec count node =
    match node.kind with
    | Leaf _ -> Array.length node.keys
    | Internal { children } -> Array.fold_left (fun acc c -> acc + count c) 0 children
  in
  let c = count t.root in
  if c <> t.n_keys then fail "Btree: key count %d does not match recorded %d" c t.n_keys
