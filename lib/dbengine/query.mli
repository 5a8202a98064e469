(** Query plan runner: executes a sequence of operators, restarting the
    plan when it completes (the paper measures each ODB-H query during its
    steady-state repetition). *)

type t

type progress = More | Blocked | Query_done

val create : Ops.t array -> t
val step : t -> Sink.t -> progress
(** Run one chunk of the current operator.  Crossing the end of the plan
    resets every operator and reports [Query_done]. *)

