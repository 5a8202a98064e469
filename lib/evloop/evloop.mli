(** A readiness wait over [Unix.select], for the serve layer's per-shard
    IO loops.

    A {!t} keeps no interest table: each {!wait} is passed the
    descriptors to watch for reading and for writing on that pass, and
    {!readable} then answers membership queries against that wait's
    ready set — the caller iterates its own (deterministically ordered)
    session list and asks, so the order in which the kernel reports
    readiness never leaks into behavior.  A descriptor the caller has
    closed is simply never passed again.

    Every loop owns a self-pipe wakeup: {!wake} is safe to call from any
    domain (pool workers, sibling shards, signal handlers) and makes the
    next (or current) {!wait} return promptly.  The wakeup pipe is
    drained internally; it is never visible as a readable descriptor.

    [select] watches only descriptors numbered below [FD_SETSIZE] (1024
    on Linux); callers that accept connections ask {!watchable} first
    and never pass any other to {!wait}, which would fail with [EINVAL].

    Failures surface as [Unix.Unix_error]; the module never raises
    [Failure]/[Invalid_argument] on the serve path (G003). *)

type t

val create : unit -> t

val watchable : Unix.file_descr -> bool
(** Can {!wait} watch this descriptor?  [false] for one numbered at or
    past [FD_SETSIZE], which [Unix.select] refuses with [EINVAL]. *)

val wait :
  t -> read:Unix.file_descr list -> write:Unix.file_descr list -> timeout_ms:int -> unit
(** Block until a [read] descriptor is readable, a [write] one writable,
    {!wake} is called, or [timeout_ms] elapses ([timeout_ms < 0] means
    forever).  Replaces the ready set {!readable} queries; an
    interrupted wait ([EINTR]) returns with it empty.  Write readiness
    only ends the wait: the caller just tries the write. *)

val readable : t -> Unix.file_descr -> bool
(** Was this descriptor among the last {!wait}'s [read] list, and
    readable? *)

val wake : t -> unit
(** Thread-/domain-safe: nudge the loop out of {!wait}. *)

val close : t -> unit
(** Release the wakeup pipe. *)
