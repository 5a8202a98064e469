(** Descriptive statistics.

    [Acc] is a single-pass Welford accumulator used throughout the simulator
    (it is numerically stable for the long, near-constant CPI streams that
    low-variance workloads produce).  The array functions are convenience
    wrappers for post-hoc analysis of collected series. *)

module Acc : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val mean : t -> float
  (** Mean of the observations; 0 when empty. *)

  val variance : t -> float
  (** Population variance (the paper's E is a population variance); 0 when
      fewer than 2 observations. *)

  val stddev : t -> float
  val min : t -> float
  val max : t -> float
end

val variance : float array -> float
(** Population variance; 0 for arrays of length < 2. *)


val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]]; linear interpolation between
    order statistics.  The input array is not modified. *)

val summary : float array -> string
(** One-line human-readable summary: n/mean/std/min/median/max. *)
