(** A readiness API over [Unix.select], for the serve layer's per-shard
    IO loops.

    One {!t} watches a set of file descriptors for read and/or write
    interest.  {!wait} blocks until something is ready (or the timeout
    elapses), then {!readable} and {!writable} answer membership queries
    against the ready set of that wait — the caller iterates its own
    (deterministically ordered) session list and asks, so the order in
    which the kernel reports readiness never leaks into behavior.

    Every loop owns a self-pipe wakeup: {!wake} is safe to call from any
    domain (pool workers, sibling shards, signal handlers) and makes the
    next (or current) {!wait} return promptly with {!woken} set.  The
    wakeup pipe is drained internally; it is never visible as a readable
    descriptor.

    [select] watches only descriptors numbered below [FD_SETSIZE] (1024
    on Linux).  {!add} refuses any other, so one such descriptor can
    never make every later {!wait} fail; callers that accept connections
    ask {!watchable} first.

    Failures surface as [Unix.Unix_error]; the module never raises
    [Failure]/[Invalid_argument] on the serve path (G003).  Descriptors
    must be {!remove}d before they are closed — select would die with
    [EBADF] on a stale one. *)

type t

val create : unit -> t

val watchable : Unix.file_descr -> bool
(** Can {!wait} watch this descriptor?  [false] for one numbered at or
    past [FD_SETSIZE], which [Unix.select] refuses with [EINVAL]. *)

val add : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Raises [Unix.Unix_error (EINVAL, "Evloop.add", _)], leaving the
    loop unchanged, for a descriptor that is not {!watchable}. *)

val modify : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Set the interest of a watched descriptor; one not yet watched is
    {!add}ed. *)

val remove : t -> Unix.file_descr -> unit
(** Forget a descriptor.  Must precede [Unix.close].  Removing a
    descriptor that was never added is a no-op. *)

val wait : t -> timeout_ms:int -> unit
(** Block until at least one watched descriptor is ready, {!wake} is
    called, or [timeout_ms] elapses ([timeout_ms < 0] means forever).
    Replaces the ready sets queried by {!readable}/{!writable}/{!woken};
    interrupted waits ([EINTR]) return with empty ready sets. *)

val readable : t -> Unix.file_descr -> bool
val writable : t -> Unix.file_descr -> bool

val woken : t -> bool
(** Did the last {!wait} consume a {!wake}?  (The wake bytes themselves
    are drained internally.) *)

val wake : t -> unit
(** Thread-/domain-safe: nudge the loop out of {!wait}. *)

val close : t -> unit
(** Release the wakeup pipe.  Watched descriptors themselves are not
    closed. *)
