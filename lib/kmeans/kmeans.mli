(** Sparse k-means clustering of EIPVs.

    This is the code-only baseline the paper contrasts with regression
    trees (Section 4.6): clusters are computed from EIPVs alone — CPI never
    drives the partition — and CPI predictability is evaluated afterwards
    by predicting each interval's CPI with its cluster's mean CPI.  Also
    used to implement phase-based (SimPoint-style) and stratified sampling
    in the core library. *)

type model = {
  centroids : float array array;  (** dense centroid per cluster *)
  assignment : int array;  (** cluster of each input point *)
  inertia : float;  (** total squared distance to assigned centroids *)
  k : int;
}

val fit :
  ?max_iter:int ->
  ?restarts:int ->
  Stats.Rng.t ->
  k:int ->
  n_features:int ->
  Stats.Sparse_vec.t array ->
  model
(** Lloyd's algorithm with k-means++ seeding; the best of [restarts]
    (default 3) runs by inertia is kept.  [k] is clamped to the number of
    points.  Empty clusters are re-seeded with the point farthest from its
    centroid. *)

val cv_relative_error :
  ?folds:int ->
  ?max_iter:int ->
  Stats.Rng.t ->
  k:int ->
  n_features:int ->
  Stats.Sparse_vec.t array ->
  cpi:float array ->
  float
(** Held-out analogue of {!Rtree.Cv}: cluster on 90% of the points, assign
    each held-out point to its nearest centroid and predict the cluster's
    {e training} mean CPI.  Returns RE = mean squared error / Var(CPI).
    This is the number compared against the tree's RE in Section 4.6. *)

val best_k_cv :
  ?kmax:int ->
  ?folds:int ->
  Stats.Rng.t ->
  n_features:int ->
  Stats.Sparse_vec.t array ->
  cpi:float array ->
  int * float
(** Scan k = 1..kmax (default 50, geometric steps above 16 to bound cost)
    and return the (k, RE) minimising held-out RE — the paper picks each
    algorithm's best k below 50. *)
