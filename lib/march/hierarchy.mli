(** Multi-level cache hierarchy (inclusive allocate-on-miss). *)

type level = L1 | L2 | L3 | Mem

type t

val create : Config.t -> t

val access_data : t -> int -> level
(** Deepest level that had to service the data reference; fills all levels
    above it. *)

val access_inst : t -> int -> level
(** Same for an instruction-fetch reference (separate L1I, shared
    L2/L3). *)

val install : t -> int -> unit
(** Pre-install a line into the L2/L3 (prefetch fill); does not touch the
    L1. *)

val data_latency : Config.t -> level -> float
(** Extra stall cycles a data access at this level costs (0 for L1). *)

val l1d : t -> Cache.t
