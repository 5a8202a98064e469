(** Event sink filled by the database operators while they "execute".

    The sink accumulates the micro-trace of one scheduling quantum:
    instruction counts attributed to code regions, data references, branch
    outcomes and blocking I/O events.  The workload layer drains it into a
    {!March.Quantum.t}. *)

type t

type drained = {
  instrs : int;
  region_instrs : (int * int) array;  (** (region id, instrs) pairs *)
  n_refs : int;
  addrs : int array;  (** the data references are its first [n_refs] entries *)
  n_branches : int;
  branch_pcs : int array;  (** the branches are its first [n_branches] entries *)
  branch_taken : bool array;  (** parallel to [branch_pcs] *)
  io_waits : int;
  extra_refs : int;  (** logical references beyond the emitted sample *)
  extra_branches : int;
}

val create : unit -> t
val instrs : t -> region:int -> int -> unit
val data_ref : t -> int -> unit
(** Record a data reference by byte address.  Loads and stores alike:
    the cache model allocates on both and never tells them apart. *)

val branch : t -> pc:int -> taken:bool -> unit
val io_wait : t -> unit

val account_refs : t -> int -> unit
(** Record [n] logical data references that are {e not} individually
    emitted (the synthetic workloads emit a bounded sample of their
    reference stream; the driver turns the ratio into the quantum's
    [ref_weight]). *)

val account_branches : t -> int -> unit
(** Same for branches. *)

val total_instrs : t -> int
val drain : t -> drained
(** Return everything accumulated and reset the sink.  The three event
    arrays are the sink's own buffers, not copies, and may be longer than
    their counts: they stay valid only until the sink is next written
    to. *)
