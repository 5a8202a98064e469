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

let sse n sum sumsq =
  if n = 0 then 0.0
  else
    let v = sumsq -. (sum *. sum /. float_of_int n) in
    Float.max 0.0 v

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

let y_totals (data : Dataset.t) rows =
  let sum = ref 0.0 and sumsq = ref 0.0 in
  Array.iter
    (fun r ->
      let y = data.Dataset.y.(r) in
      sum := !sum +. y;
      sumsq := !sumsq +. (y *. y))
    rows;
  (!sum, !sumsq)

let make_mnode data rows =
  let sum, sumsq = y_totals data rows in
  { rows; mn = Array.length rows; msum = sum; msumsq = sumsq; split = None }

(* Route a node's rows to the two sides of a split.  Count-then-fill, no
   intermediate lists; both sides keep ascending row order (the order the
   old list-based version produced). *)
let partition (data : Dataset.t) rows feature threshold =
  let nl = ref 0 in
  Array.iter
    (fun r -> if Sv.get data.Dataset.rows.(r) feature <= threshold then incr nl)
    rows;
  let left = Array.make !nl 0 and right = Array.make (Array.length rows - !nl) 0 in
  let li = ref 0 and ri = ref 0 in
  Array.iter
    (fun r ->
      if Sv.get data.Dataset.rows.(r) feature <= threshold then begin
        left.(!li) <- r;
        incr li
      end
      else begin
        right.(!ri) <- r;
        incr ri
      end)
    rows;
  (left, right)

(* ------------------------------ grower ------------------------------ *)

(* The paper's exhaustive variance-minimising split search, made
   O(total nnz log nnz) per node by handling the implicit zero entries of
   each sparse column as a "zeros bucket" whose y-statistics follow from
   the node totals by subtraction.  Zero hashtables and zero boxing on
   the hot path.

   A build-local arena holds flat (x, y) column scratch sized to the
   dataset's total nnz plus per-feature count/start/cursor tables; each
   node's per-feature entry segments are rebuilt by count-then-fill in
   O(node nnz), then a position array is sorted per segment.

   The specification it must match bit for bit is the test oracle
   (test/oracle: a per-node hashtable of (x, y) lists, converted to an
   array and sorted at every node).  Bit-identity is by construction, not
   by luck:

   - the fill iterates the node's rows in REVERSE, reproducing exactly
     the entry order the oracle's cons-list building leaves in its array
     (prepend over ascending rows = descending rows);
   - the position sort feeds Array.sort the same element count and the
     same comparator sign sequence (x-only keys over that same input
     order), and stdlib heapsort's permutation is a pure function of
     both — so even the UNSTABLE tie permutation, which is observable
     through equal-gain split selection, is replayed bit-for-bit;
   - every floating-point accumulation mirrors the oracle
     operation-for-operation in the same order.

   The QCheck equivalence suite in test/test_rtree.ml asserts the
   resulting trees are node-for-node bit-identical. *)

type arena = {
  axs : float array;  (* entry x values, segmented per feature *)
  ays : float array;  (* entry y values, parallel to axs *)
  acount : int array;  (* per-feature entry count for the current node *)
  astart : int array;  (* per-feature segment start *)
  acursor : int array;  (* per-feature fill cursor *)
  aperm : int array;  (* scratch positions for one segment (≤ n rows) *)
  atouched : Stats.Growvec.Int.t;  (* features present in the current node *)
}

let make_arena (data : Dataset.t) =
  let nnz = Dataset.total_nnz data in
  let nf = data.Dataset.n_features in
  {
    axs = Array.make nnz 0.0;
    ays = Array.make nnz 0.0;
    acount = Array.make nf 0;
    astart = Array.make nf 0;
    acursor = Array.make nf 0;
    aperm = Array.make (Dataset.n data) 0;
    atouched = Stats.Growvec.Int.create ();
  }

let best_split_arena (data : Dataset.t) arena ~rows ~n ~sum ~sumsq =
  let node_sse = sse n sum sumsq in
  if node_sse <= 0.0 || n < 2 * min_leaf then None
  else begin
    let xs = arena.axs and ys = arena.ays in
    let count = arena.acount and start = arena.astart and cursor = arena.acursor in
    let touched = arena.atouched in
    (* Count entries per feature; record each feature on first touch. *)
    Array.iter
      (fun r ->
        Sv.iter
          (fun f _ ->
            if count.(f) = 0 then Stats.Growvec.Int.push touched f;
            count.(f) <- count.(f) + 1)
          data.Dataset.rows.(r))
      rows;
    let feats = Stats.Growvec.Int.to_array touched in
    Array.sort (fun (a : int) b -> compare a b) feats;
    let off = ref 0 in
    Array.iter
      (fun f ->
        start.(f) <- !off;
        cursor.(f) <- !off;
        off := !off + count.(f))
      feats;
    (* Fill in reverse row order: per feature this reproduces exactly the
       array the oracle builds by prepending over ascending rows. *)
    for ri = Array.length rows - 1 downto 0 do
      let r = rows.(ri) in
      let y = data.Dataset.y.(r) in
      Sv.iter
        (fun f x ->
          let p = cursor.(f) in
          xs.(p) <- x;
          ys.(p) <- y;
          cursor.(f) <- p + 1)
        data.Dataset.rows.(r)
    done;
    let best = ref None in
    let consider feature threshold gain =
      match !best with
      | Some b when b.cgain >= gain -> ()
      | _ -> best := Some { cfeature = feature; cthreshold = threshold; cgain = gain }
    in
    (* Position comparator on x only: inline float compares (no C call),
       same sign sequence as the oracle's tuple sort — x values are finite
       counts, so this matches polymorphic compare exactly. *)
    let cmp_pos a b =
      let xa = Array.unsafe_get xs a and xb = Array.unsafe_get xs b in
      if xa < xb then -1 else if xa > xb then 1 else 0
    in
    let scratch = arena.aperm in
    Array.iter
      (fun f ->
        let lo = start.(f) in
        let nnz = count.(f) in
        (* Sort positions by x only, same input order and comparator sign
           sequence as the oracle's tuple sort.  stdlib heapsort's tie
           permutation is observable through equal-gain split selection,
           but it only matters when the segment HAS ties: with pairwise
           distinct keys the sorted pair sequence is unique, so a cheap
           insertion sort gives the identical result.  Small segments are
           insertion-sorted into scratch and checked for adjacent
           duplicates; only tied (or large) segments replay Array.sort,
           whose permutation is a pure function of the element count and
           comparator sign sequence — both reproduced here exactly. *)
        let perm =
          if nnz <= 24 then begin
            for i = 0 to nnz - 1 do
              Array.unsafe_set scratch i (lo + i)
            done;
            for i = 1 to nnz - 1 do
              let p = Array.unsafe_get scratch i in
              let key = Array.unsafe_get xs p in
              let j = ref (i - 1) in
              while
                !j >= 0
                && Array.unsafe_get xs (Array.unsafe_get scratch !j) > key
              do
                Array.unsafe_set scratch (!j + 1) (Array.unsafe_get scratch !j);
                decr j
              done;
              Array.unsafe_set scratch (!j + 1) p
            done;
            let distinct = ref true in
            for i = 0 to nnz - 2 do
              if
                Array.unsafe_get xs (Array.unsafe_get scratch i)
                = Array.unsafe_get xs (Array.unsafe_get scratch (i + 1))
              then distinct := false
            done;
            if !distinct then scratch
            else begin
              let perm = Array.init nnz (fun i -> lo + i) in
              Array.sort cmp_pos perm;
              perm
            end
          end
          else begin
            let perm = Array.init nnz (fun i -> lo + i) in
            Array.sort cmp_pos perm;
            perm
          end
        in
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
        let ln = ref n_zero
        and lsum = ref (sum -. !nz_sum)
        and lsumsq = ref (sumsq -. !nz_sumsq) in
        let try_threshold t =
          let rn = n - !ln in
          if !ln >= min_leaf && rn >= min_leaf then begin
            let split_sse = sse !ln !lsum !lsumsq +. sse rn (sum -. !lsum) (sumsq -. !lsumsq) in
            consider f t (node_sse -. split_sse)
          end
        in
        if n_zero > 0 && nnz > 0 then try_threshold 0.0;
        for i = 0 to nnz - 1 do
          let p = Array.unsafe_get perm i in
          let x = Array.unsafe_get xs p in
          let y = Array.unsafe_get ys p in
          incr ln;
          lsum := !lsum +. y;
          lsumsq := !lsumsq +. (y *. y);
          if i < nnz - 1 && Array.unsafe_get xs (Array.unsafe_get perm (i + 1)) > x then
            try_threshold x
        done)
      feats;
    (* Reset the touched slice of the arena for the next node. *)
    Array.iter (fun f -> count.(f) <- 0) feats;
    Stats.Growvec.Int.clear touched;
    !best
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
