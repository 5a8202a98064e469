(** Set-associative LRU cache model.

    Addresses are non-negative byte addresses in an [int]; the cache
    tracks line tags only (no data).  Replacement is true LRU: each set's
    tags are stored in recency order, most recent first, so a hit rotates
    its line to the front and a miss drops the last way.  Never-used ways
    sit at the back and are filled first.  {!access} allocates nothing. *)

type t

val create : size_bytes:int -> ways:int -> line_bytes:int -> t
(** Geometry must be consistent: [size_bytes] divisible by
    [ways * line_bytes], line a power of two, at least one set. *)

val access : t -> int -> bool
(** [access t addr] returns [true] on hit; always updates LRU and
    allocates the line on miss. *)

val probe : t -> int -> bool
(** Hit test without state change. *)

val sets : t -> int
val ways : t -> int
val line_bytes : t -> int
