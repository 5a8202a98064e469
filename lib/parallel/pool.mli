(** A small, dependency-free work pool on OCaml 5 [Domain]s.

    The pool exists so that cross-validation folds and per-workload
    analyses can fan out across cores while keeping results bit-identical
    to a serial run: [map] always returns results in input order, and
    callers are expected to hand each task its own deterministic inputs
    (e.g. an {!Stats.Rng.split_label} stream) so nothing depends on
    scheduling.

    A pool created with [jobs = 1] spawns no domains and [map] is a plain
    [Array.map], which makes serial-vs-parallel equivalence trivially
    testable. *)

type t

val max_jobs : int
(** Upper bound on [jobs] (the constructor clamps, it does not raise). *)

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains ([jobs] is clamped to
    [1 .. max_jobs]); the thread calling {!map} acts as the [jobs]-th
    worker for its own batch while it waits. *)

val jobs : t -> int
(** The (clamped) parallelism this pool was created with. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f xs] applies [f] to every element of [xs], possibly in
    parallel, and returns the results in input order.  If one or more
    tasks raise, every task still runs to completion (the pool is never
    wedged) and the exception of the lowest-index failing task is
    re-raised on the calling thread.  While it waits, the calling thread
    runs the unstarted items of this batch and nothing else: it never
    picks up another batch's items or a submitted task.  Nested calls —
    [f] itself calling [map] on the same pool — are safe, because a
    nested [map] runs its own items instead of waiting for a worker.

    @raise Invalid_argument if the pool has been shut down. *)

type 'a future
(** Handle to a single task submitted with {!submit}. *)

val submit : t -> (unit -> 'a) -> 'a future
(** [submit t f] enqueues [f] for execution on the pool and returns
    immediately; the task runs concurrently with the submitter.  On a
    [jobs = 1] pool (no worker domains) [f] runs synchronously before
    [submit] returns, so results are identical for every pool size — the
    only difference is {e when} the work happens.  Used by the streaming
    refit policy to overlap tree retraining with sample ingestion.

    @raise Invalid_argument if the pool has been shut down. *)

val await : t -> 'a future -> 'a
(** Block until the future's task has completed and return its result
    (re-raising the task's exception, if any).  If no worker has started
    the task yet, the caller runs it itself.  Otherwise, while it waits,
    the caller runs unstarted items of the {!map} that the task opened
    last on this pool, and nothing else: never another batch's items or
    another submitted task.  [await] may be called at most once per
    future from one thread. *)

val shutdown : t -> unit
(** Drain the queue, stop and join all worker domains.  Idempotent;
    concurrent {!map} calls must have completed first. *)

val shared : jobs:int -> t
(** Process-lifetime pool memoised per [jobs] value.  Never shut down;
    use this from library code so repeated analyses do not re-spawn
    domains. *)

val default_jobs : unit -> int
(** The [JOBS] environment variable if set and positive, otherwise
    [Domain.recommended_domain_count ()] capped at 8. *)
