(** Fully-associative data-TLB model with exact LRU replacement
    ({!Stats.Lru} over page numbers).

    TLB walks contribute to the OTHER stall component in the CPI
    breakdown.  {!access} is O(1) in the number of entries and allocates
    nothing. *)

type t

val create : entries:int -> page_bytes:int -> t
val access : t -> int -> bool
(** [access t addr] for a non-negative byte address: [true] on a hit.  A
    miss installs the page in a never-used entry while one is left, else
    in place of the least recently used page. *)
