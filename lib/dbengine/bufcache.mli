(** Database buffer cache (the Oracle SGA in the paper's setup).

    Page-granular LRU cache standing between operators and "disk": a miss
    means the accessing thread blocks on I/O and yields the CPU — the
    mechanism behind the server workloads' high context-switch rates. *)

type t

val create : pages:int -> page_bytes:int -> t
(** Holds exactly [pages] pages, replaced least recently used first
    ({!Stats.Lru}). *)

val touch : t -> int -> bool
(** [touch t addr] returns [true] on a buffer hit. *)
