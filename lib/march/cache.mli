(** Set-associative LRU cache model.

    Addresses are non-negative byte addresses in an [int]; the cache
    tracks line tags only (no data).  Replacement is true LRU: each set's
    tags are stored in recency order, most recent first, so a hit rotates
    its line to the front and a miss drops the last way.  Never-used ways
    sit at the back and are filled first.  {!access}, {!walk} and
    {!walk_batch} allocate nothing. *)

type t

val create : size_bytes:int -> ways:int -> line_bytes:int -> t
(** Geometry must be consistent: [size_bytes] divisible by
    [ways * line_bytes], line a power of two, at least one set. *)

val access : t -> int -> bool
(** [access t addr] returns [true] on hit; always updates LRU and
    allocates the line on miss. *)

val walk : t array -> int -> int
(** [walk path addr] accesses [addr] in [path.(0)], [path.(1)], ... and
    stops at the first hit: it returns that cache's index, or
    [Array.length path] when every cache missed.  Each cache it passes
    allocates the line, as {!access} does; the caches after the hit are
    not touched. *)

val walk_batch :
  t array -> int array -> from:int -> upto:int -> Bytes.t -> stop_at_memory:bool -> int
(** [walk_batch path addrs ~from ~upto levels ~stop_at_memory] walks
    [addrs.(from)], [addrs.(from + 1)], ... up to but excluding
    [addrs.(upto)], each as {!walk} does, and writes each one's serving
    level into byte [i] of [levels].  It returns the index after the last
    address walked: [upto], or, with [~stop_at_memory:true], the index
    after the first address served by memory, so the caller can act on
    that miss (a prefetch) before the next address is walked.
    @raise Invalid_argument if [from < 0] or [upto] exceeds [addrs] or
    [levels]. *)

val probe : t -> int -> bool
(** Hit test without state change. *)

val sets : t -> int
val ways : t -> int
val line_bytes : t -> int
