(** Specification implementations of the CART grower and the
    cross-validated RE curve (DESIGN.md §12), and the Scanf trace-archive
    decoder ({!Trace_io}).  The shipped {!Rtree.Tree.build} and
    {!Rtree.Cv.relative_error_curve} must be bit-identical to these,
    which QCheck asserts in [test_rtree.ml].  The oracle shares no code
    with [lib/rtree] beyond the data types: it has its own copy of the
    best-first growth loop and of the CV fold skeleton, so the
    equivalence properties also cover the frontier discipline and the
    fold-order merge. *)

module Tree : sig
  val build : max_leaves:int -> Rtree.Dataset.t -> Rtree.Tree.node
  (** Per-node hashtable of (x, y) entries, re-sorted at every node; the
      root of the tree {!Rtree.Tree.build} must grow, node for node. *)

  val predict_k : Rtree.Tree.node -> k:int -> Stats.Sparse_vec.t -> float
  (** Prediction with the nested subtree T_k: splits of rank > k-1 are
      treated as leaves.  One walk per k; {!Rtree.Tree.sweep_k} must
      agree for every k. *)
end

module Cv : sig
  val relative_error_curve :
    ?folds:int -> ?kmax:int -> Stats.Rng.t -> Rtree.Dataset.t -> Rtree.Cv.curve
  (** Serial: {!Tree.build} per fold and one {!Tree.predict_k} walk per
      (row, k).  Defaults as {!Rtree.Cv.relative_error_curve}. *)
end

module Trace_io : sig
  val of_string : label:string -> string -> Sampling.Driver.run
  (** The archive decoder {!Sampling.Trace_io.of_string} replaced: Scanf
      per sample line.  Same header, trailer and failure contract.  The
      shipped decoder may reject more, never less, and must return the
      same run bit for bit wherever it accepts; [test_fuzz.ml] checks
      both over random runs and over mutated v1/v2 archives. *)
end
