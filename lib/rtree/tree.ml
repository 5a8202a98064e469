module Sv = Stats.Sparse_vec

type node =
  | Leaf of { mean : float; n : int }
  | Split of {
      feature : int;
      threshold : float;
      rank : int;
      mean : float;
      n : int;
      left : node;
      right : node;
    }

type t = { root : node; n_splits : int }

let root t = t.root

(* [Float.max 0.0 v] written out, so the grower's calls stay unboxed:
   v when v > 0 or v is NaN, else +0.0 (also for v = -0.0). *)
let[@inline] sse n sum sumsq =
  if n = 0 then 0.0
  else
    let v = sumsq -. (sum *. sum /. float_of_int n) in
    if v > 0.0 || v <> v then v else 0.0

(* The smallest admissible side of a split, and the squared-error
   reduction a split must exceed. *)
let min_leaf = 1
let min_gain = 1e-12

type candidate = {
  cfeature : int;
  cthreshold : float;
  cgain : float;
}

(* Mutable representation used during best-first growth: a node is just
   its rows and their y-statistics; column scratch lives in the build
   arena, not the node. *)
type mnode = {
  rows : int array;
  mn : int;
  msum : float;
  msumsq : float;
  mutable split : msplit option;
}

and msplit = {
  sfeature : int;
  sthreshold : float;
  mutable srank : int;
  sleft : mnode;
  sright : mnode;
}

let make_mnode (data : Dataset.t) rows =
  let y = data.Dataset.y in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for i = 0 to Array.length rows - 1 do
    let v = y.(rows.(i)) in
    sum := !sum +. v;
    sumsq := !sumsq +. (v *. v)
  done;
  { rows; mn = Array.length rows; msum = !sum; msumsq = !sumsq; split = None }

(* Route a node's rows to the two sides of a split.  Count-then-fill, no
   intermediate lists; both sides keep ascending row order (the order the
   old list-based version produced). *)
let partition (data : Dataset.t) rows feature threshold =
  let nl = ref 0 in
  for i = 0 to Array.length rows - 1 do
    if Sv.get data.Dataset.rows.(rows.(i)) feature <= threshold then incr nl
  done;
  let left = Array.make !nl 0 and right = Array.make (Array.length rows - !nl) 0 in
  let li = ref 0 and ri = ref 0 in
  for i = 0 to Array.length rows - 1 do
    let r = rows.(i) in
    if Sv.get data.Dataset.rows.(r) feature <= threshold then begin
      left.(!li) <- r;
      incr li
    end
    else begin
      right.(!ri) <- r;
      incr ri
    end
  done;
  (left, right)

(* ------------------------------ grower ------------------------------ *)

(* The paper's exhaustive variance-minimising split search, made
   O(total nnz log nnz) per node by handling the implicit zero entries of
   each sparse column as a "zeros bucket" whose y-statistics follow from
   the node totals by subtraction.  Zero hashtables and zero boxing on
   the hot path.

   A build-local arena holds a flat copy of the rows (CSR: row r's
   (feature, count) pairs are [cidx]/[cval] from [rptr.(r)] to
   [rptr.(r + 1) - 1], in [Sparse_vec.iter] order), flat (x, y) column
   scratch sized to the dataset's total nnz, and per-feature
   count/cursor tables; each node's per-feature entry segments are
   rebuilt by count-then-fill in O(node nnz + features), then a position
   array is sorted per segment.

   The specification it must match bit for bit is the test oracle
   (test/oracle: a per-node hashtable of (x, y) lists, converted to an
   array and sorted with Stdlib 5.1's Array.sort at every node).
   Bit-identity is by construction, not by luck:

   - the node's features are listed by scanning the counts in id order,
     which is the ascending order the oracle's sorted bindings give;
   - the fill iterates the node's rows in REVERSE, reproducing exactly
     the entry order the oracle's cons-list building leaves in its array
     (prepend over ascending rows = descending rows);
   - each segment is sorted by [heapsort_positions], a copy of that
     Array.sort specialised to positions keyed by x: same element count,
     same input order, and the same comparisons in the same order, so
     even the UNSTABLE tie permutation, which is observable through
     equal-gain split selection, is replayed bit-for-bit;
   - every floating-point accumulation mirrors the oracle
     operation-for-operation in the same order.

   The QCheck equivalence suite in test/test_rtree.ml asserts the
   resulting trees are node-for-node bit-identical. *)

type arena = {
  rptr : int array;  (* row r's entries: rptr.(r) .. rptr.(r + 1) - 1 *)
  cidx : int array;  (* every row's feature ids, row after row *)
  cval : float array;  (* the counts, parallel to cidx *)
  axs : float array;  (* entry x values, segmented per feature *)
  ays : float array;  (* entry y values, parallel to axs *)
  acount : int array;  (* per-feature entry count for the current node *)
  acursor : int array;  (* per-feature fill cursor, then segment end *)
  afeats : int array;  (* the current node's features, ascending *)
  aperm : int array;  (* scratch positions for one segment (≤ n rows) *)
}

let make_arena (data : Dataset.t) =
  let nnz = Dataset.total_nnz data in
  let nf = data.Dataset.n_features in
  let n = Dataset.n data in
  let rptr = Array.make (n + 1) 0 and cidx = Array.make nnz 0 and cval = Array.make nnz 0.0 in
  let p = ref 0 in
  let add f x =
    cidx.(!p) <- f;
    cval.(!p) <- x;
    incr p
  in
  for r = 0 to n - 1 do
    rptr.(r) <- !p;
    Sv.iter add data.Dataset.rows.(r)
  done;
  rptr.(n) <- !p;
  {
    rptr;
    cidx;
    cval;
    axs = Array.make nnz 0.0;
    ays = Array.make nnz 0.0;
    acount = Array.make nf 0;
    acursor = Array.make nf 0;
    afeats = Array.make nf 0;
    aperm = Array.make n 0;
  }

(* Stdlib 5.1's [Array.sort], a ternary heapsort, specialised to the
   positions [a.(0) .. a.(l - 1)] under the order of their x values
   [xs.(a.(i))].  Each function makes the comparisons of its Stdlib
   namesake in the same order, on the same elements, and moves the same
   elements, so the sort leaves the permutation [Array.sort] would leave,
   ties included.  A position comparator [cmp] is negative exactly when
   [xs.(p) < xs.(q)] and positive exactly when [xs.(p) > xs.(q)], so
   those two float tests stand in for [cmp p q < 0] and [cmp p q > 0].
   Where Stdlib raises [Bottom i], [maxson] returns -1 and its caller
   does what the handler did with that [i]; Stdlib's [assert] in
   [trickleup] cannot fail (i >= 1 there) and is left out.  Indices stay
   below [l]: a segment holds at most one entry per row, and [aperm] has
   one slot per row. *)
let[@inline] key (xs : float array) (a : int array) i = Array.unsafe_get xs (Array.unsafe_get a i)

let maxson xs a l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x = if key xs a i31 < key xs a (i31 + 1) then i31 + 1 else i31 in
    if key xs a x < key xs a (i31 + 2) then i31 + 2 else x
  end
  else if i31 + 1 < l && key xs a i31 < key xs a (i31 + 1) then i31 + 1
  else if i31 < l then i31
  else -1

let rec trickledown xs a l i e =
  let j = maxson xs a l i in
  if j >= 0 && key xs a j > Array.unsafe_get xs e then begin
    Array.unsafe_set a i (Array.unsafe_get a j);
    trickledown xs a l j e
  end
  else Array.unsafe_set a i e

let rec bubbledown xs a l i =
  let j = maxson xs a l i in
  if j < 0 then i
  else begin
    Array.unsafe_set a i (Array.unsafe_get a j);
    bubbledown xs a l j
  end

let rec trickleup xs a i e =
  let father = (i - 1) / 3 in
  if key xs a father < Array.unsafe_get xs e then begin
    Array.unsafe_set a i (Array.unsafe_get a father);
    if father > 0 then trickleup xs a father e else Array.unsafe_set a 0 e
  end
  else Array.unsafe_set a i e

let heapsort_positions xs a l =
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickledown xs a l i (Array.unsafe_get a i)
  done;
  for i = l - 1 downto 2 do
    let e = Array.unsafe_get a i in
    Array.unsafe_set a i (Array.unsafe_get a 0);
    trickleup xs a (bubbledown xs a i 0) e
  done;
  if l > 1 then begin
    let e = Array.unsafe_get a 1 in
    Array.unsafe_set a 1 (Array.unsafe_get a 0);
    Array.unsafe_set a 0 e
  end

(* The split of [f] at [t] that leaves [ln] rows with y-sums [lsum] and
   [lsumsq] on the left becomes the best so far ([bfeature], and [bscore]
   = [|threshold; gain|]) unless an earlier candidate's gain is at least
   as large, as in the oracle.  A float array holds the two floats
   unboxed, so a new best allocates nothing. *)
let[@inline] consider_split ~bfeature ~bscore ~n ~sum ~sumsq ~node_sse f t ln lsum lsumsq =
  let rn = n - ln in
  if ln >= min_leaf && rn >= min_leaf then begin
    let split_sse = sse ln lsum lsumsq +. sse rn (sum -. lsum) (sumsq -. lsumsq) in
    let gain = node_sse -. split_sse in
    if !bfeature < 0 || not (Array.unsafe_get bscore 1 >= gain) then begin
      bfeature := f;
      Array.unsafe_set bscore 0 t;
      Array.unsafe_set bscore 1 gain
    end
  end

let best_split_arena (data : Dataset.t) arena ~rows ~n ~sum ~sumsq =
  let node_sse = sse n sum sumsq in
  if node_sse <= 0.0 || n < 2 * min_leaf then None
  else begin
    let { rptr; cidx; cval; axs = xs; ays = ys; acount = count; acursor = cursor; _ } = arena in
    let feats = arena.afeats and perm = arena.aperm in
    for i = 0 to Array.length rows - 1 do
      let r = rows.(i) in
      for p = rptr.(r) to rptr.(r + 1) - 1 do
        let f = cidx.(p) in
        count.(f) <- count.(f) + 1
      done
    done;
    (* The node's features in ascending id order, and where their
       segments start. *)
    let nfeats = ref 0 and off = ref 0 in
    for f = 0 to Array.length count - 1 do
      let c = count.(f) in
      if c > 0 then begin
        feats.(!nfeats) <- f;
        incr nfeats;
        cursor.(f) <- !off;
        off := !off + c
      end
    done;
    (* Fill in reverse row order: per feature this reproduces exactly the
       array the oracle builds by prepending over ascending rows. *)
    for i = Array.length rows - 1 downto 0 do
      let r = rows.(i) in
      let yr = data.Dataset.y.(r) in
      for p = rptr.(r) to rptr.(r + 1) - 1 do
        let f = cidx.(p) in
        let q = cursor.(f) in
        xs.(q) <- cval.(p);
        ys.(q) <- yr;
        cursor.(f) <- q + 1
      done
    done;
    let bfeature = ref (-1) and bscore = [| 0.0; 0.0 |] in
    for fi = 0 to !nfeats - 1 do
      let f = feats.(fi) in
      let nnz = count.(f) in
      let lo = cursor.(f) - nnz in
      for i = 0 to nnz - 1 do
        Array.unsafe_set perm i (lo + i)
      done;
      heapsort_positions xs perm nnz;
      let n_zero = n - nnz in
      let nz_sum = ref 0.0 and nz_sumsq = ref 0.0 in
      (* One pass, two independent accumulators: each accumulator's
         addition order matches the oracle's separate folds. *)
      for i = 0 to nnz - 1 do
        let y = Array.unsafe_get ys (Array.unsafe_get perm i) in
        nz_sum := !nz_sum +. y;
        nz_sumsq := !nz_sumsq +. (y *. y)
      done;
      (* Running left-side statistics, seeded with the zeros bucket. *)
      let ln = ref n_zero and lsum = ref (sum -. !nz_sum) and lsumsq = ref (sumsq -. !nz_sumsq) in
      if n_zero > 0 && nnz > 0 then
        consider_split ~bfeature ~bscore ~n ~sum ~sumsq ~node_sse f 0.0 !ln !lsum !lsumsq;
      for i = 0 to nnz - 1 do
        let p = Array.unsafe_get perm i in
        let x = Array.unsafe_get xs p in
        let y = Array.unsafe_get ys p in
        incr ln;
        lsum := !lsum +. y;
        lsumsq := !lsumsq +. (y *. y);
        if i < nnz - 1 && Array.unsafe_get xs (Array.unsafe_get perm (i + 1)) > x then
          consider_split ~bfeature ~bscore ~n ~sum ~sumsq ~node_sse f x !ln !lsum !lsumsq
      done
    done;
    (* Reset the touched slice of the arena for the next node. *)
    for fi = 0 to !nfeats - 1 do
      count.(feats.(fi)) <- 0
    done;
    if !bfeature < 0 then None
    else Some { cfeature = !bfeature; cthreshold = bscore.(0); cgain = bscore.(1) }
  end

(* The best-first growth loop.  The frontier discipline (a list pushed
   left-then-right, scanned for the first strictly-largest gain) is part
   of the output contract: equal-gain ties resolve by frontier position,
   so the test oracle replays it exactly. *)
let build ~max_leaves (data : Dataset.t) =
  if max_leaves < 1 then invalid_arg "Tree.build: max_leaves must be >= 1";
  let arena = make_arena data in
  let n = Dataset.n data in
  let all_rows = Array.init n (fun i -> i) in
  let root = make_mnode data all_rows in
  (* Frontier of unsplit leaves paired with their best candidate split. *)
  let frontier = ref [] in
  let push node =
    match
      best_split_arena data arena ~rows:node.rows ~n:node.mn ~sum:node.msum
        ~sumsq:node.msumsq
    with
    | Some c when c.cgain > min_gain -> frontier := (node, c) :: !frontier
    | Some _ | None -> ()
  in
  push root;
  let n_splits = ref 0 in
  let leaves = ref 1 in
  while !leaves < max_leaves && !frontier <> [] do
    (* Pick the frontier leaf whose split removes the most squared error;
       the first of equal gains wins, by position, not pointer identity. *)
    let best_idx =
      let bi = ref (-1) and bg = ref neg_infinity in
      List.iteri
        (fun i (_, c) ->
          if c.cgain > !bg then begin
            bi := i;
            bg := c.cgain
          end)
        !frontier;
      !bi
    in
    match if best_idx < 0 then None else Some (List.nth !frontier best_idx) with
    | None -> frontier := []
    | Some (node, cand) ->
        frontier := List.filteri (fun i _ -> i <> best_idx) !frontier;
        let lrows, rrows = partition data node.rows cand.cfeature cand.cthreshold in
        let lnode = make_mnode data lrows and rnode = make_mnode data rrows in
        incr n_splits;
        node.split <-
          Some
            {
              sfeature = cand.cfeature;
              sthreshold = cand.cthreshold;
              srank = !n_splits;
              sleft = lnode;
              sright = rnode;
            };
        incr leaves;
        push lnode;
        push rnode
  done;
  let rec freeze m =
    let mean = if m.mn = 0 then 0.0 else m.msum /. float_of_int m.mn in
    match m.split with
    | None -> Leaf { mean; n = m.mn }
    | Some s ->
        Split
          {
            feature = s.sfeature;
            threshold = s.sthreshold;
            rank = s.srank;
            mean;
            n = m.mn;
            left = freeze s.sleft;
            right = freeze s.sright;
          }
  in
  { root = freeze root; n_splits = !n_splits }

(* ------------------------------ queries ----------------------------- *)

let rec predict_node node x =
  match node with
  | Leaf { mean; _ } -> mean
  | Split { feature; threshold; left; right; _ } ->
      if Sv.get x feature <= threshold then predict_node left x else predict_node right x

let predict t x = predict_node t.root x

(* Ranks strictly increase along any root-to-leaf path (a child can only
   be split after its parent exists), so one descent serves every k: a
   path node of rank r is the T_k prediction for every k in
   [previous path rank + 1, r], and the terminal node covers the rest:
   O(depth + kmax) rather than a walk per k. *)
let sweep_k t ~kmax x ~f =
  if kmax < 1 then invalid_arg "Tree.sweep_k: kmax must be >= 1";
  let k = ref 1 in
  let finish mean =
    while !k <= kmax do
      f !k mean;
      incr k
    done
  in
  let rec go node =
    match node with
    | Leaf { mean; _ } -> finish mean
    | Split { rank; mean; feature; threshold; left; right; _ } ->
        if rank > kmax - 1 then finish mean
        else begin
          while !k <= rank do
            f !k mean;
            incr k
          done;
          if Sv.get x feature <= threshold then go left else go right
        end
  in
  go t.root

let n_leaves t = t.n_splits + 1

let depth t =
  let rec go = function
    | Leaf _ -> 1
    | Split { left; right; _ } -> 1 + max (go left) (go right)
  in
  go t.root

let split_gains t =
  (* Recover each split's SSE reduction from node statistics: splitting a
     node of mean m into children (m_l, n_l) and (m_r, n_r) removes
     n_l*(m_l - m)^2 + n_r*(m_r - m)^2 of squared error. *)
  let gains = Array.make t.n_splits 0.0 in
  let stats = function
    | Leaf { mean; n } -> (mean, n)
    | Split { mean; n; _ } -> (mean, n)
  in
  let rec collect = function
    | Leaf _ -> ()
    | Split { rank; left; right; mean; _ } ->
        let lm, ln = stats left and rm, rn = stats right in
        let dl = lm -. mean and dr = rm -. mean in
        gains.(rank - 1) <- (float_of_int ln *. dl *. dl) +. (float_of_int rn *. dr *. dr);
        collect left;
        collect right
  in
  collect t.root;
  gains

let feature_importance t =
  let stats = function
    | Leaf { mean; n } -> (mean, n)
    | Split { mean; n; _ } -> (mean, n)
  in
  let gains = Hashtbl.create 16 in
  let total = ref 0.0 in
  let rec collect = function
    | Leaf _ -> ()
    | Split { feature; left; right; mean; _ } ->
        let lm, ln = stats left and rm, rn = stats right in
        let dl = lm -. mean and dr = rm -. mean in
        let g = (float_of_int ln *. dl *. dl) +. (float_of_int rn *. dr *. dr) in
        total := !total +. g;
        (match Hashtbl.find_opt gains feature with
        | Some r -> r := !r +. g
        | None -> Hashtbl.add gains feature (ref g));
        collect left;
        collect right
  in
  collect t.root;
  (* Key-sorted before the stable sort on gain, so ties break by feature id. *)
  let entries = List.map (fun (f, g) -> (f, !g)) (Stats.Det.hashtbl_bindings gains) in
  let norm = if !total > 0.0 then !total else 1.0 in
  entries
  |> List.map (fun (f, g) -> (f, g /. norm))
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let training_sse_curve t (data : Dataset.t) ~kmax =
  let sums = Array.make kmax 0.0 in
  Array.iteri
    (fun i row ->
      let y = data.Dataset.y.(i) in
      sweep_k t ~kmax row ~f:(fun k pred ->
          let e = y -. pred in
          sums.(k - 1) <- sums.(k - 1) +. (e *. e)))
    data.Dataset.rows;
  sums

let pp ppf t =
  let rec go ppf indent node =
    match node with
    | Leaf { mean; n } -> Format.fprintf ppf "%sleaf mean=%.4f n=%d@," indent mean n
    | Split { feature; threshold; rank; left; right; _ } ->
        Format.fprintf ppf "%s#%d EIP_%d <= %g ?@," indent rank feature threshold;
        go ppf (indent ^ "  ") left;
        go ppf (indent ^ "  ") right
  in
  Format.fprintf ppf "@[<v>";
  go ppf "" t.root;
  Format.fprintf ppf "@]"
