(** Exact-capacity LRU set of integer keys: the replacement policy of the
    simulated data TLB ([March.Tlb]) and the database buffer cache
    ([Dbengine.Bufcache]).

    A key-to-slot hash index and an intrusive recency list make each
    access O(1) in the capacity.  {!access} and {!misses} allocate
    nothing. *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument unless [capacity] is positive. *)

val access : t -> int -> bool
(** [access t key]: [true] on a hit, which makes [key] the most recently
    used.  A miss installs [key] in a never-used slot while one is left,
    else in place of the least recently used key. *)

val misses : t -> shift:int -> int array -> int -> int
(** [misses t ~shift addrs n] accesses the keys [addrs.(i) asr shift]
    for [i = 0 .. n - 1] in order, as {!access} does, and returns how
    many missed: a whole quantum's references in one call.
    @raise Invalid_argument unless [0 <= n <= Array.length addrs]. *)
