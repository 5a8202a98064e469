(** The live quadrant classifier: after every sealed interval it places
    the workload on the paper's (CPI variance, RE) plane with the latest
    published relative error and a confidence that tightens as intervals
    accrue.

    CPI variance is the {!Sketch}'s whole-stream Welford variance over
    interval CPIs — accumulated in arrival order, hence bit-identical to
    the offline [Stats.Describe.variance] of the same CPIs.  RE comes
    from the most recent refit (see {!Refit}); before the first fit the
    verdict carries no quadrant.

    {b Confidence} is a deterministic heuristic in [0, 1):
    [(1 - exp (-n/32)) * min axis_var axis_re], where each axis term is
    [1 - exp (-|log10 (metric / threshold)|)] — 0 exactly on a threshold
    (either quadrant equally plausible), growing with distance from it,
    and discounted while few intervals have been seen.  It is a
    monitoring signal, not a calibrated probability. *)

type verdict = {
  interval : int;  (** 0-based index of the sealed interval *)
  n_intervals : int;  (** intervals sealed so far (= interval + 1) *)
  cpi_mean : float;
  cpi_variance : float;  (** whole-stream variance over interval CPIs *)
  window_variance : float;  (** variance over the trailing window *)
  re : float option;  (** latest published RE_kopt; [None] before any fit *)
  kopt : int option;
  quadrant : Fuzzy.Quadrant.t option;
  confidence : float;
  drift : bool;  (** a drift detector fired at this interval *)
  refit : bool;  (** a refit result was published at this interval *)
}

type t

val create : window:int -> t
(** Places the workload with the paper's thresholds
    ({!Fuzzy.Quadrant.default_var_threshold},
    {!Fuzzy.Quadrant.default_re_threshold}); [window] is the trailing
    window of the windowed variance, in intervals. *)

val observe : t -> cpi:float -> unit
(** Record one sealed interval's instantaneous CPI. *)

val publish : t -> re:float -> kopt:int -> unit
(** Install a refit result as the current RE. *)

val verdict : t -> interval:int -> drift:bool -> refit:bool -> verdict
(** The current placement, for the interval just sealed. *)

val n : t -> int
val cpi_variance : t -> float

val pp_verdict : Format.formatter -> verdict -> unit
(** One line, fixed format — the unit of [repro stream]'s trace, printed
    with enough digits that bit-identical runs render identical lines. *)
