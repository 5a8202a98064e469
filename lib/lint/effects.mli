(** Fixpoint effect/raise inference over {!Graph.t}, and rules G001/G003.
    [infer] and [sweep] are pure so the QCheck suite can check monotonicity
    and idempotence directly. *)

val bit_random : int
val bit_clock : int
val bit_hash : int
val bit_io : int
val bit_mutation : int
val bit_spawn : int
val bit_raises : int

val effect_names : int -> string list
(** Sorted-by-bit human names of a bitset, e.g. [["random"; "io"]]. *)

val base_effects : Graph.node -> int
(** Effects a node exhibits before propagation. *)

val sweep : Graph.t -> succ:int array array -> int array -> int array
(** One propagation sweep of the transfer function (pure). *)

val infer : Graph.t -> int array
(** Transitive effect set per node: the least fixpoint of {!sweep} over
    {!base_effects}, computed SCC-by-SCC in callee-first order, with
    sanctum barriers ({!Rules_det.sanctum}) cutting the matching effect
    at the blessed containment modules. *)

type origin = { ofile : string; oline : int; ocol : int }

val raise_sets : Graph.t -> (string * origin) list array
(** Escaping exception constructors per node (with the originating raise
    site), propagated over applied edges through each call site's handler
    mask.  ["?"] stands for a constructor that is not statically known. *)

val g001 : Graph.t -> Rule.finding list

val default_interesting : string list

val g003 : ?interesting:string list -> Graph.t -> Rule.finding list
