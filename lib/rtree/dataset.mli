(** Regression data sets: sparse feature rows paired with a scalar target.

    In the paper's use, a row is one EIPV (the histogram of EIPs sampled in
    one 100M-instruction interval) and the target is that interval's
    instantaneous CPI. *)

type t = private {
  rows : Stats.Sparse_vec.t array;
  y : float array;
  n_features : int;
}

val make : rows:Stats.Sparse_vec.t array -> y:float array -> t
(** Rows and targets must have equal, non-zero length.  [n_features] is
    1 + the largest feature index present (at least 1). *)

val n : t -> int
val y_variance : t -> float
(** Population variance of the target — the paper's E, the denominator of
    every relative error. *)

val restrict : t -> int array -> t
(** Subset of rows by index (used to carve cross-validation folds). *)

val total_nnz : t -> int
(** Total stored entries across all rows — the size of the column scratch
    one tree build needs ({!Tree.build} allocates its arena from this). *)
