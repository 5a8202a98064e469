(** CART regression trees over sparse count features (the paper's
    Section 4.1).

    The split search is exactly the paper's: for every feature (unique EIP)
    and every distinct count value, try the two-way partition "count <= v"
    vs "count > v" and keep the split minimising the weighted sum of the
    two sides' CPI variances.  The tree is grown {e best-first}: at each
    step the single leaf whose best split removes the most squared error is
    split, so the growth induces a nested sequence of optimal-ish trees
    T_1, T_2, ..., T_kmax and any prefix T_k can be queried after one
    build (see {!sweep_k}). *)

type t

type node =
  | Leaf of { mean : float; n : int }
  | Split of {
      feature : int;
      threshold : float;  (** go left iff [x.(feature) <= threshold] *)
      rank : int;  (** 1-based order in which this split was made *)
      mean : float;
      n : int;
      left : node;
      right : node;
    }

val root : t -> node

val build : max_leaves:int -> Dataset.t -> t
(** Every split leaves at least one row on each side and removes more
    than 1e-12 of squared error.  Growth stops at [max_leaves] leaves or
    when no admissible split remains.

    This is the fast grower: a build-local arena holds a flat copy of the
    rows, rebuilds each node's per-feature (x, y) entry segments by
    count-then-fill and sorts each segment's positions with an in-module
    copy of Stdlib 5.1's heapsort — no hashtable, no boxed tuples and no
    closure on the hot path.  The fill order and the sort's comparisons
    replay the specification implementation exactly, so even the
    heapsort's unstable tie permutation (observable through equal-gain
    split selection) is reproduced and the output is bit-identical to the
    oracle in [test/oracle] — same nodes, same float bits — which QCheck
    asserts on random sparse datasets (DESIGN.md §12). *)

val predict : t -> Stats.Sparse_vec.t -> float
(** Prediction with the full tree. *)

val sweep_k : t -> kmax:int -> Stats.Sparse_vec.t -> f:(int -> float -> unit) -> unit
(** [sweep_k t ~kmax x ~f] calls [f k p] for every k in 1..kmax, where
    [p] is the prediction of the nested subtree T_k (at most k chambers:
    splits of rank > k-1 are treated as leaves, exactly as if growth had
    stopped at k leaves) — in one root-to-leaf descent.  Ranks strictly
    increase along any path, so the prediction for k is the first path
    node of rank >= k (else the leaf), and the whole sweep is
    O(depth + kmax) instead of a walk per k.  [f] is invoked with k
    ascending. *)

val n_leaves : t -> int
val depth : t -> int

val split_gains : t -> float array
(** Squared-error reduction of each split in rank order — non-increasing by
    construction of best-first growth. *)

val feature_importance : t -> (int * float) list
(** Total squared-error reduction attributed to each feature, normalised
    to sum to 1, sorted descending.  In the paper's setting this answers
    "which EIPs predict CPI". *)

val training_sse_curve : t -> Dataset.t -> kmax:int -> float array
(** [training_sse_curve t data ~kmax].(k-1) is the total squared error of
    T_k on [data]; with [data] the training set it is non-increasing in
    k. *)

val pp : Format.formatter -> t -> unit
(** Multi-line rendering of the tree structure (used to print Figure 1). *)
