(** In-memory B+-tree with integer keys and values, plus the address trace
    of every traversal.

    Used by index-scan operators: each lookup reports the simulated memory
    addresses of the visited nodes, so that the randomness of tree descent
    over a skewed key distribution shows up as genuine cache behaviour —
    the mechanism the paper blames for Q18's unpredictable CPI
    (Section 6.2, citing the "randomness of the tree traversal"). *)

type t

val create : ?fanout:int -> node_bytes:int -> base_addr:int -> unit -> t
(** [fanout] (default 32) is the maximum number of keys per node. *)

val bulk_load : t -> (int * int) array -> unit
(** Load sorted (key, value) pairs into an empty tree; keys must be
    strictly increasing.  Builds a balanced tree bottom-up. *)

val find : t -> int -> int option

val lookup : t -> int -> visit:(int -> unit) -> int
(** [lookup t key ~visit] descends from the root to the leaf that holds or
    would hold [key], calling [visit] on the address of each node on the
    way, root first, and returns the value stored under [key], or -1 when
    there is none.  It allocates nothing beyond what [visit] does, so
    index operators call it once per probe; {!find} walks the same
    descent and tells a stored -1 from a missing key. *)

val height : t -> int
val n_keys : t -> int
val footprint_bytes : t -> int
(** Bytes of simulated address space the nodes occupy (test hook: the
    lookup tests check every visited address falls inside it). *)

val check_invariants : t -> unit
(** Raises [Failure] if ordering, balance or occupancy invariants are
    violated (test hook). *)
