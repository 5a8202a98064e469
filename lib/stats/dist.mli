(** Categorical draws built on {!Rng}.

    Workload models use these for their discrete choices: which EIP of a
    code region executes next ({!Workload.Code_map}) and which
    transaction type an OLTP thread runs. *)

type categorical
(** Discrete distribution over [0..n-1] with given weights, sampled in
    O(1) via Walker's alias method. *)

val categorical : float array -> categorical
(** Weights must be non-negative with a positive sum. *)

val categorical_draw : categorical -> Rng.t -> int
