(** Specification implementations the shipped fast paths are held to:
    the CART grower and the cross-validated RE curve (DESIGN.md §12),
    the trace-archive decoders, the store's read path and the EIPV
    builder as they were before reading in place (§14), and the
    boxed-state RNG and record-node B-tree the simulator had before its
    per-event rewrite (§12a).  The shipped {!Rtree.Tree.build} and
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

module Checksum : sig
  val unseal : tag:string -> string -> (string, string) result
  (** {!Stats.Checksum.unseal} before it checked a range in place: the
      body comes back as a copy.  Same errors. *)
end

module Trace_io : sig
  val of_string : label:string -> string -> Sampling.Driver.run
  (** The archive decoder {!Sampling.Trace_io.of_string} replaced: Scanf
      per sample line.  Same header, trailer and failure contract.  The
      shipped decoder may reject more, never less, and must return the
      same run bit for bit wherever it accepts; [test_fuzz.ml] checks
      both over random runs and over mutated v1/v2 archives. *)

  val by_position : label:string -> string -> Sampling.Driver.run
  (** The position decoder that followed it, before it read a range in
      place and converted [%h] tokens from their digits: the body and
      every float token are copied, and floats go through
      [float_of_string].  The shipped decoder must accept and reject
      exactly what this one does, with the same run and messages. *)
end

module Cas : sig
  val unframe : string -> (string * string, string) result
  (** {!Store.Cas}'s entry-file check before it read in place: [(key,
      payload)] of a valid entry file, each a copy of a copied body. *)
end

module Codec : sig
  val decode_entry : string -> (Sampling.Driver.run * Rtree.Cv.curve, string) result
  (** {!Store.Codec.decode_entry} before it handed the archive to the
      trace decoder in place: the archive is copied, then decoded by
      {!Trace_io.by_position}.  [test_fuzz.ml] requires the shipped read
      path to accept exactly the mutated entries this path accepts. *)
end

module Eipv : sig
  (** {!Sampling.Eipv}'s builder before its int table and dense counts:
      polymorphic [Hashtbl]s for the interner and the interval's counts,
      the histogram through sorted binding lists, and a breakdown record
      per sample.  The shipped builder must seal the same intervals bit
      for bit ([test_sampling.ml]). *)

  module Builder : sig
    type t

    val create : samples_per_interval:int -> t
    val feed : t -> Sampling.Driver.sample -> Sampling.Eipv.interval option
    val sealed : t -> int
    val pending_samples : t -> int
    val n_features : t -> int
  end

  val build : Sampling.Driver.run -> samples_per_interval:int -> Sampling.Eipv.t
  val build_thread_separated : Sampling.Driver.run -> samples_per_interval:int -> Sampling.Eipv.t
end

module Rng : sig
  (** {!Stats.Rng} with its SplitMix64 state in a boxed [int64] field and
      a recursive rejection loop in [int].  The shipped generator must
      give the same stream for every seed and every sequence of
      operations; [test_stats.ml] checks it with QCheck. *)

  type t

  val create : int -> t
  val split : t -> t
  val split_label : int -> string -> t
  val bits : t -> int
  val int : t -> int -> int
  val int_in : t -> int -> int -> int
  val float : t -> float -> float
  val bool : t -> bool
  val bernoulli : t -> float -> bool
  val shuffle : t -> 'a array -> unit
  val permutation : t -> int -> int array
end

module Btree : sig
  (** {!Dbengine.Btree} with a record per node and a binary search in
      each.  The shipped tree must return the same value and visit the
      same addresses in the same order on every lookup, and agree on
      [find], [height], [n_keys] and [footprint_bytes];
      [test_dbengine.ml] checks it with QCheck. *)

  type t

  val create : ?fanout:int -> node_bytes:int -> base_addr:int -> unit -> t
  val bulk_load : t -> (int * int) array -> unit
  val find : t -> int -> int option
  val lookup : t -> int -> visit:(int -> unit) -> int
  val height : t -> int
  val n_keys : t -> int
  val footprint_bytes : t -> int
  val check_invariants : t -> unit
end
