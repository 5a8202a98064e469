(** Fully-associative data-TLB model with exact LRU replacement
    ({!Stats.Lru} over page numbers).

    TLB walks contribute to the OTHER stall component in the CPI
    breakdown.  {!misses} is O(1) per address in the number of entries
    and allocates nothing. *)

type t

val create : entries:int -> page_bytes:int -> t

val misses : t -> int array -> int -> int
(** [misses t addrs n] looks up the pages of the non-negative byte
    addresses [addrs.(0)] .. [addrs.(n - 1)] in order and returns how
    many missed.  A miss installs the page in a never-used entry while
    one is left, else in place of the least recently used page.
    @raise Invalid_argument unless [0 <= n <= Array.length addrs]. *)
