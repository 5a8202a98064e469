(** Four-way CPI breakdown, as measured by the Itanium 2 event counters in
    the paper's Section 5.1:
    - WORK: cycles to execute instructions,
    - FE: I-cache and branch-misprediction front-end stalls,
    - EXE: D-cache miss stalls (mostly L3 misses),
    - OTHER: remaining back-end stalls (TLB walks, structural hazards, OS
      overhead). *)

type t = { work : float; fe : float; exe : float; other : float }

val zero : t
val add : t -> t -> t

val scale : t -> float -> t
val total : t -> float
val per_instr : t -> instrs:int -> t
(** Divide every component by the instruction count, yielding CPI
    components. *)

val exe_fraction : t -> float
(** EXE share of the total (the paper's "L3 miss stalls account for X% of
    CPI" metric); 0 when the total is 0. *)

