(** Bump allocator for the simulated physical address space, keeping every
    table, index and scratch area disjoint so cache behaviour is
    faithful. *)

type t

val create : ?base:int -> unit -> t
val alloc : t -> bytes:int -> int
(** Returns the page-aligned base address of a fresh region. *)
