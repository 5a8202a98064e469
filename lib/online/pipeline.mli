(** The streaming online-analysis pipeline: consume {!Sampling.Driver}
    sample events one at a time and maintain, in bounded memory, a live
    answer to the paper's question — does code predict this workload's
    CPI well enough to drive phase-based sampling?

    Per stream the pipeline holds: an incremental EIPV builder
    ({!Sampling.Eipv.Builder}) sealing an interval every
    [samples_per_interval] events; online CPI statistics ({!Sketch});
    the drift detectors ({!Drift}); a reservoir-sampled training window
    ({!Reservoir}); the refit policy ({!Refit}), which retrains the CART
    tree on the shared {!Parallel.Pool} so fits overlap ingestion; and
    the live quadrant classifier ({!Classifier}).  State is
    O(samples_per_interval + window + reservoir + unique EIPs) —
    independent of run length.

    {b Convergence}: with the same seed and a reservoir at least as
    large as the run's interval count, {!finalize}'s verdict is
    bit-identical to the offline {!Fuzzy.Analysis} of the same workload
    (same CPI, same variance, same RE curve, same quadrant): the builder
    seals the very intervals the batch path builds, the Welford variance
    accumulates in the same order as [Stats.Describe.variance], and the
    final fit runs the same CV with the same RNG over the same rows.
    [test/test_online.ml] asserts this across a four-quadrant workload
    subset at JOBS=1 and JOBS=4.

    {b Determinism}: every number depends only on (seed, workload) —
    refit publication points are fixed sample-stream functions
    (see {!Refit}) — so traces are bit-identical for every [jobs]
    value. *)

type config = {
  analysis : Fuzzy.Analysis.config;
      (** seed, machine, interval geometry, CV parameters and [jobs] —
          shared with the offline path so the two converge. *)
  window : int;  (** trailing-window width for the windowed variance *)
  reservoir : int;
      (** training-window capacity, in intervals.  While the run is
          shorter than this, refits (and the final verdict) train on the
          full history; longer runs train on a uniform sample of it. *)
}
(** The drift detectors run at {!Drift.create}'s constants.  The first
    fit waits for 8 sealed intervals; refits fire at least 8 intervals
    apart and publish one interval later. *)

val default : config
(** [Fuzzy.Analysis.default] geometry; window 16, reservoir 256 (= the
    default interval count, so full runs finalize exactly). *)

val quick : config
(** [Fuzzy.Analysis.quick] geometry (48 intervals), smaller window. *)

type footprint = {
  pending_samples : int;  (** samples buffered in the partial interval *)
  reservoir_occupancy : int;
  window_occupancy : int;
  n_features : int;  (** interner size — bounded by the code footprint,
                         not by run length *)
}

type final = {
  name : string;
  intervals : int;  (** sealed intervals consumed *)
  samples : int;  (** samples consumed *)
  cpi : float;  (** whole-stream cycles per instruction *)
  cpi_variance : float;
  curve : Rtree.Cv.curve;  (** the final fit's RE_k curve *)
  kopt : int;
  re_kopt : float;
  quadrant : Fuzzy.Quadrant.t;
  confidence : float;
  refits : int;  (** mid-stream refits (excluding the final fit) *)
  drift_events : int;
  exact : bool;
      (** the reservoir never overflowed: the final fit saw every
          interval, so this verdict equals the offline analysis *)
}

type t

val create : ?name:string -> config -> t
(** [name] (default ["stream"]) labels the stream's RNG so distinct
    streams draw independent reservoir randomness. *)

val feed : t -> Sampling.Driver.sample -> Classifier.verdict option
(** Ingest one sample; [Some verdict] exactly when it seals an interval. *)

val footprint : t -> footprint
(** Current state size, for the bounded-memory contract: every field
    except [n_features] is capped by the configuration alone. *)

val finalize : t -> final
(** Await any in-flight refit, run the final fit (over the whole history
    when [exact], over the reservoir sample otherwise) and classify.
    Requires at least 2 sealed intervals. *)

val run_model :
  ?on_verdict:(Classifier.verdict -> unit) ->
  config ->
  Workload.Model.t ->
  final
(** Drive {!Sampling.Driver.stream} over
    [intervals * samples_per_interval] quanta straight into {!feed} —
    no full-run materialisation — calling [on_verdict] at every sealed
    interval, then {!finalize}.  Same seed derivation as
    {!Fuzzy.Analysis.analyze_model}, which is what the convergence
    guarantee is stated against. *)

val run :
  ?on_verdict:(Classifier.verdict -> unit) -> config -> string -> final
(** Look the workload up in {!Workload.Catalog} and {!run_model} it. *)

val pp_final : Format.formatter -> final -> unit
