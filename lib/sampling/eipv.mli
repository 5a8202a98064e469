(** EIP-vector construction (the paper's Section 3.2).

    A run's samples are cut into intervals of [samples_per_interval]
    consecutive samples; each interval becomes a sparse histogram over the
    run's unique EIPs plus that interval's instantaneous CPI (delta cycles
    over delta instructions) and CPI breakdown. *)

type interval = {
  eipv : Stats.Sparse_vec.t;  (** feature id -> sample count *)
  cpi : float;
  instrs : int;
  cycles : float;
  breakdown : March.Breakdown.t;  (** per-instruction stall components *)
  first_sample : int;  (** index of the interval's first sample *)
}

type t = {
  intervals : interval array;
  eip_of_feature : int array;  (** feature id -> EIP *)
  n_features : int;
  samples_per_interval : int;
}

(** Incremental interval construction: feed one {!Driver.sample} at a
    time; an {!interval} is sealed and returned every
    [samples_per_interval] feeds.  {!build} is implemented on top of this
    module, so a stream of samples fed one-by-one yields byte-identical
    intervals (same feature interning order, same accumulation order of
    cycles/instructions) to the batch constructor — the equality the
    online-analysis subsystem's convergence guarantee rests on.  State is
    O(samples_per_interval + unique EIPs seen): nothing sealed is
    retained. *)
module Builder : sig
  type t

  val create : samples_per_interval:int -> t
  val feed : t -> Driver.sample -> interval option
  (** [Some interval] exactly when this sample completes an interval. *)

  val sealed : t -> int
  (** Number of intervals sealed so far. *)

  val pending_samples : t -> int
  (** Samples buffered in the current partial interval
      (< samples_per_interval). *)

  val n_features : t -> int
  (** Unique EIPs interned so far. *)
end

val build : Driver.run -> samples_per_interval:int -> t
(** Trailing samples that do not fill a whole interval are dropped.
    Requires at least one full interval. *)

val build_thread_separated : Driver.run -> samples_per_interval:int -> t
(** The paper's Figure 6/7 input: samples are first separated per thread,
    EIPVs are built within each thread, and all threads' (EIPV, CPI)
    pairs are pooled into one data set with a shared feature space. *)

val cpis : t -> float array
val cpi_variance : t -> float
val dataset : t -> Rtree.Dataset.t
(** Package as a regression data set (EIPV rows, CPI target). *)

val points : t -> Stats.Sparse_vec.t array
(** The raw EIPV rows (k-means input). *)
