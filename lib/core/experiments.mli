(** One entry per table/figure/section-result of the paper.

    Each experiment is a pure function from an {!Analysis.config} to a
    printable report; the CLI (`bin/repro`) dispatches here, so
    DESIGN.md's per-experiment index maps one-to-one onto {!all}. *)

type t = {
  id : string;  (** e.g. "fig2", "table2" *)
  title : string;
  paper_claim : string;  (** the shape being reproduced *)
  run : Analysis.config -> string;
}

val all : t list
val ids : string list
val find : string -> t
(** Raises [Not_found]. *)

val analyze_cached : Analysis.config -> string -> Analysis.t
(** Memoised {!Analysis.analyze}: several experiments reuse the same
    workload runs (ODB-C and SjAS appear in Figures 2-7); the cache keys
    on workload name and every configuration field, compared by value,
    except [jobs] (results are identical for every jobs value).
    Thread-safe: the cache is mutex-guarded so pool workers can share
    it.

    Lookup is tiered: the in-memory table first, then the attached
    persistent store (if {!set_disk_tier} installed one), then compute —
    and a computed result is pushed back down into the store.  Misses are
    single-flight per key: concurrent callers of the same key wait for
    the first one instead of computing (or probing the disk) twice, at
    every [jobs] and whether they come through {!Parallel.Pool.map},
    {!Parallel.Pool.submit} or plain threads.  A caller whose computation
    raises leaves no entry: the exception reaches that caller, and the
    callers waiting on it retry, so one of them computes the key. *)

type disk_tier = {
  probe : Analysis.config -> string -> Analysis.t option;
      (** Return the stored analysis for (config, workload), or [None] on
          a miss.  Corrupt or stale entries must read as misses. *)
  persist : Analysis.config -> string -> Analysis.t -> unit;
      (** Called once per computed miss, under single-flight. *)
}

val set_disk_tier : disk_tier option -> unit
(** Install (or remove) the persistent second tier.  [Store.Result_cache]
    calls this; install before serving traffic — the reference is read
    un-locked on the assumption that it no longer changes. *)

val preload : Analysis.t -> unit
(** Insert an already-built analysis into the in-memory tier under its
    own (config, name) key (first insert wins) — cache warming on
    [repro serve] startup. *)

val cached : Analysis.config -> string -> bool
(** Whether {!analyze_cached} would hit for this (config, workload) —
    the analysis server's cache hit/miss metric.  Like the cache key,
    [jobs] is ignored. *)

val analyze_many : Analysis.config -> string list -> Analysis.t list
(** {!analyze_cached} mapped over [names] on the shared pool for
    [config.jobs], returning results in input order.  Each workload draws
    its randomness from [Stats.Rng.split_label config.seed name], so the
    output list is bit-identical to serially mapping {!analyze_cached}.
    A name listed several times is computed once. *)

val clear_cache : unit -> unit
