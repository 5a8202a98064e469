(* Nodes live in two int arrays indexed by node id (DESIGN.md §12a).
   Node [id]'s block starts at [off.(id)] in [data]: its key count [n],
   its [n] keys in increasing order, then a leaf's [n] values or an
   internal node's [n + 1] child ids.  Every leaf sits at depth
   [height - 1], so a descent needs no leaf flag.  Ids are handed out in
   creation order, and node [id] occupies the simulated bytes from
   [base_addr + id * node_bytes]: the empty root [create] makes is id 0,
   and [bulk_load] numbers its leaves from 1, then each internal level
   up to the root. *)
type t = {
  fanout : int;
  node_bytes : int;
  base_addr : int;
  mutable off : int array;
  mutable data : int array;
  mutable root : int;
  mutable height : int;
  mutable n_nodes : int;
  mutable n_keys : int;
}

let create ?(fanout = 32) ~node_bytes ~base_addr () =
  if fanout < 4 then invalid_arg "Btree.create: fanout must be >= 4";
  if node_bytes <= 0 then invalid_arg "Btree.create: node_bytes must be positive";
  { fanout; node_bytes; base_addr; off = [| 0 |]; data = [| 0 |]; root = 0; height = 1;
    n_nodes = 1; n_keys = 0 }

let bulk_load t ~keys ~values =
  if t.n_keys <> 0 then invalid_arg "Btree.bulk_load: tree not empty";
  let n = Array.length keys in
  if Array.length values <> n then invalid_arg "Btree.bulk_load: keys and values differ in length";
  if n > 0 then begin
    for i = 1 to n - 1 do
      if keys.(i) <= keys.(i - 1) then
        invalid_arg "Btree.bulk_load: keys must be strictly increasing"
    done;
    let per_node = max 2 (t.fanout * 3 / 4) in
    let groups m = (m + per_node - 1) / per_node in
    (* Count the nodes first, so that [off] and [data] are allocated once
       at their final size.  Every level but the root's groups its
       children [per_node] at a time, and an internal node with [c]
       children takes [2c] words of [data]. *)
    let leaves = groups n in
    let rec above m = if m <= 1 then 0 else groups m + above (groups m) in
    let built = leaves + above leaves in
    let off = Array.make (1 + built) 0 in
    let data = Array.make (1 + leaves + (2 * n) + (2 * (built - 1))) 0 in
    let next = ref 1 and pos = ref 1 in
    let push x =
      data.(!pos) <- x;
      incr pos
    in
    let new_node len =
      let id = !next in
      incr next;
      off.(id) <- !pos;
      push len;
      id
    in
    (* The leaf level, with the smallest key under each node. *)
    let level = ref (Array.make leaves 0) and mins = ref (Array.make leaves 0) in
    for l = 0 to leaves - 1 do
      let first = l * per_node in
      let last = min n (first + per_node) - 1 in
      !level.(l) <- new_node (last - first + 1);
      !mins.(l) <- keys.(first);
      for j = first to last do
        push keys.(j)
      done;
      for j = first to last do
        push values.(j)
      done
    done;
    (* Internal levels until a single root remains.  Separator i of an
       internal node is the smallest key reachable under child i+1. *)
    let height = ref 1 in
    while Array.length !level > 1 do
      let children = !level and cmins = !mins in
      let m = Array.length children in
      let parents = Array.make (groups m) 0 and pmins = Array.make (groups m) 0 in
      let j = ref 0 and g = ref 0 in
      while !j < m do
        (* Never leave a single orphan child for the last group: shrink the
           current group by one instead (per_node >= 3 keeps len >= 2). *)
        let remaining = m - !j in
        let len =
          if remaining <= per_node then remaining
          else if remaining - per_node = 1 then per_node - 1
          else per_node
        in
        parents.(!g) <- new_node (len - 1);
        pmins.(!g) <- cmins.(!j);
        for x = !j + 1 to !j + len - 1 do
          push cmins.(x)
        done;
        for x = !j to !j + len - 1 do
          push children.(x)
        done;
        incr g;
        j := !j + len
      done;
      level := parents;
      mins := pmins;
      incr height
    done;
    assert (!next = 1 + built && !pos = Array.length data);
    t.off <- off;
    t.data <- data;
    t.root <- !level.(0);
    t.height <- !height;
    t.n_nodes <- 1 + built;
    t.n_keys <- n
  end

(* The one root-to-leaf descent: calls [visit] on each node's address,
   root first, and returns the position of [key]'s value in [data], or
   -1.  Inside a node it scans the keys in order and stops at the first
   one past [key]: the separators [<= key] give the child to descend
   into, the leaf keys [< key] the slot, and on strictly increasing keys
   both counts are the indices a binary search finds.  One check per
   node that its block lies inside [data] covers every read the scan
   makes: an internal node's block ends with its last child id at
   [o + 2 len + 1], a leaf's with its last value at [o + 2 len].  Each
   node's key count is read before [visit] is called, so the wait for a
   node the host has not cached overlaps the caller's work. *)
let descend t key ~visit =
  let data = t.data in
  let id = ref t.root in
  for _ = 2 to t.height do
    let o = t.off.(!id) in
    let len = data.(o) in
    visit (t.base_addr + (!id * t.node_bytes));
    if o + (2 * len) + 1 >= Array.length data then
      raise (Invalid_argument "Btree: node out of range");
    let j = ref (o + 1) and stop = o + len in
    while !j <= stop && Array.unsafe_get data !j <= key do
      incr j
    done;
    id := Array.unsafe_get data (!j + len)
  done;
  let o = t.off.(!id) in
  let len = data.(o) in
  visit (t.base_addr + (!id * t.node_bytes));
  if o + (2 * len) >= Array.length data then raise (Invalid_argument "Btree: node out of range");
  let j = ref (o + 1) and stop = o + len in
  while !j <= stop && Array.unsafe_get data !j < key do
    incr j
  done;
  if !j <= stop && Array.unsafe_get data !j = key then !j + len else -1

let lookup t key ~visit =
  let p = descend t key ~visit in
  if p < 0 then -1 else t.data.(p)

let find t key =
  let p = descend t key ~visit:ignore in
  if p < 0 then None else Some t.data.(p)

let height t = t.height
let n_keys t = t.n_keys
let footprint_bytes t = t.n_nodes * t.node_bytes

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let data = t.data in
  let leaf_depth = t.height - 1 in
  (* The smallest or largest key under a non-empty node. *)
  let rec edge id depth ~last =
    let o = t.off.(id) in
    let len = data.(o) in
    if depth = leaf_depth then data.(if last then o + len else o + 1)
    else edge data.(o + 1 + len + if last then len else 0) (depth + 1) ~last
  in
  (* Checks the subtree under [id] and returns its key count. *)
  let rec check id depth =
    if id < 0 || id >= t.n_nodes then fail "Btree: node id %d out of range" id;
    let o = t.off.(id) in
    let len = data.(o) in
    for j = o + 2 to o + len do
      if data.(j) <= data.(j - 1) then fail "Btree: node %d keys not strictly sorted" id
    done;
    if len > t.fanout then fail "Btree: node %d overfull" id;
    if depth = leaf_depth then len
    else begin
      let child x = data.(o + 1 + len + x) in
      (* Separator consistency: every key in child i+1 is >= keys.(i),
         every key in child i is < keys.(i). *)
      for x = 0 to len - 1 do
        let sep = data.(o + 1 + x) in
        if edge (child x) (depth + 1) ~last:true >= sep then
          fail "Btree: separator %d violated on the left of node %d" sep id;
        if edge (child (x + 1)) (depth + 1) ~last:false < sep then
          fail "Btree: separator %d violated on the right of node %d" sep id
      done;
      let count = ref 0 in
      for x = 0 to len do
        count := !count + check (child x) (depth + 1)
      done;
      !count
    end
  in
  let c = check t.root 0 in
  if c <> t.n_keys then fail "Btree: key count %d does not match recorded %d" c t.n_keys
