(** Serving metrics: deterministic counters and gauges, plus per-verb
    latency histograms for the HTTP [/metrics] exposition.

    {!table} declares every metric once: its [repro client stats] key,
    its exposition family, help text and kind, and how to read it.  The
    stats frame ({!Protocol}), {!render} and the exposition
    ({!Exposition}) are each one fold over it, so all three print the
    metrics in its order.  Adding a metric is one row, plus a
    {!snapshot} field if the stats frame carries it.

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

(** What each field counts is the help text of its row in {!table}.
    The three lists are sorted by key.  The store fields are
    [Store.Result_cache.counters] (zero when no store is attached) and
    the admission fields [Admission.counters] (zero when {!create} got
    no admission), both read when the snapshot is taken. *)
type snapshot = {
  connections_accepted : int;
  connections_active : int;
  connections_refused : int;
      (** turned away [Busy]: at the max-connections cap, while draining,
          or on a descriptor the event loop cannot watch *)
  requests_total : int;
  requests_by_kind : (string * int) list;
  responses_ok : int;
  responses_error : (string * int) list;
  batch_joined : int;
  cache_hits : int;
  cache_misses : int;
  store_hits : int;
  store_misses : int;
  store_writes : int;
  store_corrupt : int;
  queue_high_water : int;
  inflight_high_water : int;
  io_shards : int;
  accepted_by_shard : (string * int) list;
  admission_admitted : int;
  admission_rate_limited : int;
  admission_too_large : int;
  admission_breaker_rejected : int;
  admission_breaker_trips : int;
}

val zero : snapshot
(** Every count zero and every list empty: the record the stats-frame
    decoder folds the rows' setters over. *)

type live = { queue_depth : int; inflight : int; draining : bool }
(** The gauges a scrape reads at that moment; the snapshot does not
    carry them. *)

type field =
  | Scalar of { key : string; get : snapshot -> int; set : snapshot -> int -> snapshot }
      (** one snapshot field, printed as [key] by {!render} *)
  | Labelled of {
      key : string;
      label : string;
      get : snapshot -> (string * int) list;
      set : snapshot -> (string * int) list -> snapshot;
    }
      (** one snapshot list: a [key ^ k] line per entry in {!render}, a
          sample labelled [label = k] per entry in the exposition *)
  | Live of (live -> int)  (** exposition only *)
  | Latency of { label : string }
      (** the per-verb histograms of {!latency}, labelled by verb;
          exposition only *)

type row = { family : string; help : string; kind : Metrics_http.Expo.kind; field : field }
(** One metric; [family] is its exposition name. *)

val table : row list
(** Every metric, in the order of the stats frame, {!render} and the
    exposition. *)

val create : ?admission:Admission.t -> unit -> t
(** [admission] is the layer whose counters {!snapshot} reports. *)

val incr_accepted : t -> unit
val incr_refused : t -> unit
val set_active : t -> int -> unit
val incr_request : t -> kind:string -> unit
val incr_ok : t -> unit
val incr_error : t -> code:string -> unit
val incr_batch_joined : t -> unit
val incr_cache_hit : t -> unit
val incr_cache_miss : t -> unit
val set_io_shards : t -> int -> unit
val incr_shard_accept : t -> shard:int -> unit
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
(** Fixed-format table, one metric per line in {!table} order — the
    output of [repro client stats] and of [repro serve] when it exits. *)
