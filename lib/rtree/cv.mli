(** Cross-validated relative-error curves (the paper's Section 4.4).

    For each of 10 random folds a tree is grown on the other 9 folds; every
    held-out point is dropped through the nested subtrees T_1..T_kmax and
    its squared prediction error accumulated.  E_k is the mean held-out
    squared error of T_k and RE_k = E_k / Var(CPI).  RE_k ~ 0 means EIPVs
    explain CPI; RE_k ~ 1 (or above — possible because split decisions made
    on 90% of random data need not generalise) means they do not. *)

type curve = {
  k_values : int array;  (** 1..kmax *)
  e : float array;  (** mean held-out squared error per k *)
  re : float array;  (** e normalised by the CPI population variance *)
  variance : float;  (** Var(CPI) over the whole data set (the paper's E) *)
}

val relative_error_curve :
  ?pool:Parallel.Pool.t -> ?folds:int -> ?kmax:int -> Stats.Rng.t -> Dataset.t -> curve
(** Defaults: 10 folds, kmax = 50.  If the data set has fewer points than
    folds, the fold count is reduced (never below 2).  If the target
    variance is ~0, RE is reported as 0 for every k (a single average
    predicts a constant CPI perfectly; see Section 4.5).

    When [pool] is given, the per-fold tree builds run on it.  The fold
    partition is drawn before fan-out and the per-fold partial sums are
    merged in fold order, so the curve is bit-identical for any [pool]
    (including none at all) given the same [rng] seed.

    Hot path: trees are grown by the presorted-column {!Tree.build} and
    every held-out row is dropped through all of T_1..T_kmax in a single
    descent ({!Tree.sweep_k}), O(depth + kmax) per row rather than
    O(depth * kmax).  The QCheck suite holds the curve bit-identical to
    the serial oracle in [test/oracle]. *)

val training_error_curve : ?kmax:int -> Dataset.t -> curve
(** Resubstitution (no held-out data) baseline: RE is non-increasing in k.
    Used by the cross-validation-vs-training ablation. *)

val kopt : curve -> tol:float -> int
(** Smallest k whose RE is within [tol] of the curve's final value — the
    paper takes tol = 0.005 ("within 0.5% of RE_k=inf").  Clamped to kmax
    even when no k qualifies (e.g. a negative [tol]). *)

val re_at : curve -> int -> float
val re_final : curve -> float
val re_min : curve -> float
(** Smallest RE over the curve (the paper quotes RE_kopt = min for SjAS). *)

val k_at_min : curve -> int
