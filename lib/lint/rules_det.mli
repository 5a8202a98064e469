(** D001–D004: determinism rules (randomness, wall-clock, hash-order,
    parallelism containment), and the one definition of the D001–D003
    policy that the deep pass (G001, the effect barrier) shares. *)

type kind = Nrandom | Nclock | Nhash  (** random, clock, hash-order *)

val ndet_of_name : string -> kind option
(** The primitive a canonical dotted name reads, e.g. [Some Nhash] for
    ["Hashtbl.fold"]. *)

val sanctum : kind -> string
(** The one root-relative file allowed to use [kind]. *)

val in_scope : kind -> string -> bool
(** Whether the D-rule for [kind] covers a root-relative path. *)

val all : Rule.t list
