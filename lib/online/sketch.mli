(** Bounded-memory online CPI statistics.

    A {!Stats.Describe.Acc} Welford accumulator over the whole stream
    (single pass, numerically stable, O(1) state) plus a ring buffer of
    the last [window] values for a windowed variance that tracks the
    {e current} regime rather than the whole history.  The accumulator
    takes values in arrival order, so after n values [mean]/[variance]
    are bit-identical to [Stats.Describe.variance] of those n values in
    the same order — which is what lets the streaming quadrant
    classifier's final variance coincide exactly with the offline
    analysis. *)

type t

val create : ?window:int -> unit -> t
(** [window] (default 16) is the width of the windowed estimate. *)

val add : t -> float -> unit
val n : t -> int
val mean : t -> float
(** Mean over the whole stream; 0 when empty. *)

val variance : t -> float
(** Population variance over the whole stream; 0 for n < 2. *)

val window_variance : t -> float
(** Population variance of the last [window] values (fewer while the
    window is filling); 0 for fewer than 2 buffered values. *)

val window_fill : t -> int
(** Values currently buffered (at most [window]). *)

