(** Multi-level cache hierarchy (inclusive allocate-on-miss). *)

type level = L1 | L2 | L3 | Mem

type t

val create : Config.t -> t

val access_data : t -> int -> level
(** Deepest level that had to service the data reference; fills all levels
    above it. *)

val install : t -> int -> unit
(** Pre-install a line into the L2/L3 (prefetch fill); does not touch the
    L1. *)

val data_path : t -> Cache.t array
(** L1D, L2 and the L3 when the machine has one: {!Cache.walk} over it
    serves a data reference as {!access_data} does, and returns the
    serving level as an index into {!latencies}. *)

val inst_path : t -> Cache.t array
(** The same with the L1I in front (instruction fetch). *)

val latencies : t -> float array
(** The extra stall cycles an access served at each level costs, in path
    order: 0 for the L1, the outer levels' latencies, then memory's.
    Indexed by what {!Cache.walk} returns over either path. *)

val l1d : t -> Cache.t
