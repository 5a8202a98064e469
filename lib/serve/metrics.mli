(** Serving metrics: deterministic counters and gauges, plus per-verb
    latency histograms for the HTTP [/metrics] exposition.

    The counters are a pure function of the request history the server
    has processed — no timestamps, no durations, no load averages — so a
    scripted client session produces a byte-identical [stats] response on
    every run and every [--jobs] value.

    The latency histograms are the one deliberately clock-fed surface:
    the server observes durations (read via [Serve.Clock]) at its
    response sites.  They are exposed ONLY through {!latency} for the
    HTTP exposition — they never enter {!snapshot}, so the binary stats
    RPC keeps its byte-identity guarantee.

    The structure itself is not synchronized: the server mutates a [t]
    only under its core lock (shards and pool completions all funnel
    through it); snapshots are plain immutable records carried over the
    [stats] RPC. *)

type t

val bucket_bounds : float array
(** Fixed log-spaced histogram bucket upper bounds in seconds: 1 us
    doubling up to ~8.4 s (24 bounds; observations above the last bound
    land in the implicit overflow bucket).  Fixed at build time so the
    exposition's bucket layout never changes without a code change. *)

type hist_snapshot = {
  hist_kind : string;  (** request verb, e.g. ["analyze"] *)
  hist_buckets : int array;
      (** per-bucket (NOT cumulative) counts aligned with
          {!bucket_bounds}; one extra trailing entry is the overflow
          bucket *)
  hist_sum : float;  (** sum of observed durations, seconds *)
  hist_count : int;
}

type snapshot = {
  connections_accepted : int;
  connections_active : int;  (** gauge: currently open sessions *)
  connections_refused : int;
      (** turned away [Busy]: at the max-connections cap, while draining,
          or on a descriptor the event loop cannot watch *)
  requests_total : int;
  requests_by_kind : (string * int) list;  (** sorted by kind *)
  responses_ok : int;
  responses_error : (string * int) list;  (** error code -> count, sorted *)
  batch_joined : int;
      (** requests answered by subscribing to an identical in-flight
          computation instead of queueing their own *)
  cache_hits : int;  (** analysis cache already held the workload *)
  cache_misses : int;
  store_hits : int;  (** persistent store served a validated entry *)
  store_misses : int;
  store_writes : int;  (** new entries persisted *)
  store_corrupt : int;  (** entries quarantined as invalid *)
  queue_high_water : int;  (** deepest the bounded request queue has been *)
  inflight_high_water : int;  (** most pool tasks outstanding at once *)
  io_shards : int;  (** accept/IO domains this server runs *)
  accepted_by_shard : (string * int) list;
      (** two-digit shard id -> connections assigned, sorted *)
  admission_admitted : int;  (** heavy requests past every admission gate *)
  admission_rate_limited : int;  (** refused: peer token bucket empty *)
  admission_too_large : int;  (** refused: request over the size budget *)
  admission_breaker_rejected : int;  (** refused: peer circuit breaker open *)
  admission_breaker_trips : int;  (** times any peer breaker opened *)
}

val create : unit -> t

val incr_accepted : t -> unit
val incr_refused : t -> unit
val set_active : t -> int -> unit
val incr_request : t -> kind:string -> unit
val incr_ok : t -> unit
val incr_error : t -> code:string -> unit
val incr_batch_joined : t -> unit
val incr_cache_hit : t -> unit
val incr_cache_miss : t -> unit

val set_store : t -> hits:int -> misses:int -> writes:int -> corrupt:int -> unit
(** Copy the persistent store's counters into the metrics (all zero when
    no store is attached).  Called before each snapshot; the store owns
    the running totals. *)

val set_io_shards : t -> int -> unit
val incr_shard_accept : t -> shard:int -> unit

val set_admission :
  t ->
  admitted:int ->
  rate_limited:int ->
  too_large:int ->
  breaker_rejected:int ->
  breaker_trips:int ->
  unit
(** Copy the admission layer's counters in (all zero when admission is
    off).  Called before each snapshot; [lib/admission] owns the running
    totals. *)

val observe_queue_depth : t -> int -> unit
val observe_inflight : t -> int -> unit

val observe_latency : t -> kind:string -> seconds:float -> unit
(** Record one request's wall-clock duration into the per-verb
    histogram.  Negative durations (a clock stepping backwards) clamp to
    zero.  Call sites pair 1:1 with [incr_request] observations so that
    at quiescence each verb's histogram count equals its
    [requests_by_kind] counter. *)

val latency : t -> hist_snapshot list
(** Per-verb histograms, sorted by verb.  This is the only way latency
    data leaves [t] — deliberately not part of {!snapshot}. *)

val snapshot : t -> snapshot

val render : snapshot -> string
(** Fixed-format table, one metric per line, keys sorted — the output of
    [repro client stats] and of [repro serve] when it exits. *)
