(** Drift detection for the streaming pipeline: decides {e when} the
    regression tree is worth refitting.

    Two complementary detectors run side by side:

    - {b Page–Hinkley} over per-sample instantaneous CPI (cycles over
      retired instructions of one sampling quantum): a sequential
      change-point test that alarms when the cumulative deviation from
      the running mean exceeds [lambda], in either direction.  This sees
      performance shifts whether or not the code changed.
    - {b Working-set signatures} over sealed intervals: the Dhodapkar &
      Smith detector from {!Fuzzy.Phase_detect}, lifted into incremental
      form — each sealed interval's hashed EIP signature is compared to
      the {e union} signature accumulated over the current phase.  A
      single sampled interval sees only a random subset of its phase's
      hot EIPs, so comparing consecutive intervals directly alarms on
      sampling jitter; against the phase union, a same-phase interval
      contributes mostly known bits while a real working-set change is
      mostly new bits.  Signatures too sparse to judge (fewer than
      [signature_min_population] set bits) abstain.  This sees
      code-phase changes whether or not CPI moved (the paper's point is
      precisely that the two need not coincide).

    Both detectors are pure functions of the sample stream, so their
    verdicts are deterministic and independent of [--jobs]. *)

module Page_hinkley : sig
  type t

  val create : ?delta:float -> ?lambda:float -> unit -> t
  (** [delta] (default 0.05) is the magnitude of drift tolerated around
      the running mean; [lambda] (default 25.0) the alarm threshold on
      the cumulative statistic.  The detector self-resets after each
      alarm. *)

  val observe : t -> float -> bool
  (** Feed one value; [true] on alarm. *)

  val alarms : t -> int
end

type t

val create : samples_per_interval:int -> t
(** Page–Hinkley at its defaults; 1024-bit signatures, where a new-bit
    fraction above 0.5 starts a new phase and a signature needs at least
    4 set bits before it is compared at all. *)

val observe_sample : t -> cpi:float -> unit
(** Per-sample hook: feeds the Page–Hinkley detector.  Alarms are
    latched until the next {!observe_interval}. *)

val observe_interval : t -> Sampling.Eipv.interval -> bool
(** Per-sealed-interval hook: compares the interval's working-set
    signature against the current phase union and combines with any
    latched Page–Hinkley alarm.  Returns [true] when either detector
    fired for this interval. *)

val events : t -> int
(** Total drifting intervals reported by {!observe_interval}. *)

