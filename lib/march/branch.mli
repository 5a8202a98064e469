(** Gshare branch predictor (McFarling 1993).

    A table of 2-bit saturating counters indexed by PC xor global history.
    Only the mispredict/correct outcome feeds the CPI model; the predictor
    state is what makes branchy, irregular code (gcc-like models) pay
    front-end stalls while predictable loops do not. *)

type t

val create : table_bits:int -> unit -> t
(** [table_bits] sets the counter table to 2^bits entries and the global
    history to as many bits. *)

val update : t -> pc:int -> taken:bool -> bool
(** Predict, then train with the actual direction and shift the history.
    Returns [true] when the prediction was wrong (a mispredict). *)

val mispredicts : t -> pcs:int array -> taken:bool array -> n:int -> int
(** [update] each of the first [n] branches in order and count the
    mispredicts. *)
