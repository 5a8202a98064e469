(** Sparse non-negative count vectors.

    An EIP vector (EIPV) has one dimension per unique EIP in the whole run
    — tens of thousands for server workloads — but each individual interval
    only touches the EIPs that were actually sampled in it (at most the
    number of samples per interval).  This module is the shared currency
    between the sampler, the regression tree and k-means: indices are
    compact feature ids, values are sample counts (stored as floats so the
    same type serves centroid arithmetic). *)

type t
(** Immutable sparse vector.  Indices are strictly increasing; stored values
    are non-zero. *)

val empty : t

val of_assoc : (int * float) list -> t
(** Build from (index, value) pairs.  Duplicate indices are summed; zero
    totals are dropped.  Negative indices are rejected. *)

val of_sorted : int array -> float array -> t
(** [of_sorted idx v] takes the two arrays as they are (no copy): indices
    non-negative and strictly increasing, values non-zero, one value per
    index — the sampler's per-interval histogram.  Raises
    [Invalid_argument] otherwise.  The caller must not mutate them
    afterwards. *)

val nnz : t -> int
(** Number of stored (non-zero) entries. *)

val get : t -> int -> float
(** [get v i] is 0 for absent indices.  O(log nnz) iterative binary
    search — this is the tree grower's row-routing primitive and the
    per-node probe of prediction, so it is kept branch-light. *)

val max_index : t -> int
(** Largest stored index; -1 for the empty vector. *)

val iter : (int -> float -> unit) -> t -> unit
val sum : t -> float
val norm2 : t -> float
(** Squared Euclidean norm. *)

val dot_dense : t -> float array -> float
(** Dot product with a dense vector; indices beyond the dense length
    contribute 0. *)

val add_into_dense : t -> float array -> unit
(** Accumulate the sparse entries into a dense vector (used for centroid
    updates).  Indices beyond the dense length are ignored. *)

val sq_dist_dense : t -> float array -> norm2_dense:float -> float
(** [sq_dist_dense v c ~norm2_dense] is ||v - c||² computed in O(nnz v)
    given the precomputed squared norm of [c]. *)
