(** Deterministic pseudo-random number generation.

    All randomness in the library flows through this module so that every
    experiment is reproducible from a single integer seed.  The generator is
    SplitMix64 (Steele, Lea & Flood 2014): a tiny, fast, statistically sound
    64-bit generator with cheap stream splitting, which we use to give every
    workload thread its own independent stream. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t].  The two
    streams are statistically independent. *)

val split_label : int -> string -> t
(** [split_label seed label] derives a generator from a master [seed] and
    a textual [label] (e.g. a workload name).  The stream depends only on
    the pair — not on when or where it is created — so concurrent tasks
    seeded this way produce results independent of scheduling order.
    Distinct labels give independent streams; the same pair is always
    reproducible. *)

val bits : t -> int
(** 62 uniform non-negative bits as an OCaml [int]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniform random permutation of [0..n-1]. *)
