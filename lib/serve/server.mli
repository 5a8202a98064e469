(** The analysis server: [io_shards] accept/IO event loops ({!Evloop})
    that parse framed {!Protocol} requests, gate the heavy ones through
    {!Admission} and fan them out onto the shared {!Parallel.Pool}.

    {b Concurrency shape.}  Shard 0 runs on the calling thread and owns
    the listening socket; shards 1..N-1 are {!Parallel.Io} domains.  A
    connection is assigned [shard = hash id mod N] at accept time and
    everything about it — socket IO, frame parsing, its {!Session}
    ledger — happens only on that shard; cross-shard traffic (accepted
    connections, routed responses) moves through per-shard mailboxes and
    evloop wakeups.  Request {e work} (workload analysis) runs on pool
    workers, and the task that finishes one posts the encoded response
    to each subscriber's shard mailbox; shared bookkeeping (queue,
    batching table, metrics, admission) sits behind one core lock.
    Responses are computed in whatever order the pool finishes them but
    written strictly in per-connection request order ({!Session}), so a
    conversation's bytes are a pure function of the requests —
    bit-identical for every [--jobs] and every [--io-shards].

    {b Admission.}  When configured, heavy requests pass a per-peer
    token bucket, a request-size budget and a per-peer circuit breaker
    {e before} touching the queue; refusals are typed
    ([rate_limited]/[too_large]/[overloaded]).  All admission state
    advances on request-count ticks, never the clock ({!Admission}).

    {b Backpressure.}  Heavy requests wait in a bounded FIFO; when it is
    full the server answers [Error Overloaded] immediately instead of
    queueing without bound.  Identical in-flight requests are batched:
    the work runs once and every subscriber receives the same encoded
    response ("pool-backed batching").

    {b Deadlines.}  [request_timeout] bounds how long a request may wait
    in the queue: expiry is checked as it leaves the queue, so a request
    either times out while waiting (deterministically, for [--timeout 0])
    or runs to completion — a result is never half-delivered.

    {b Descriptors.}  An accepted connection whose descriptor
    {!Evloop} cannot watch (numbered at or past [FD_SETSIZE]) is
    refused like one past [max_connections]: [Busy], then closed.  When
    [accept] runs out of descriptors ([EMFILE]/[ENFILE]) the listeners
    sit out one loop wait and new connections queue in the kernel
    backlog until a descriptor frees.

    {b Shutdown.}  A [Shutdown] request or SIGINT/SIGTERM starts a drain:
    new connections are refused, new heavy requests answer [Overloaded],
    queued and in-flight work completes, owed responses flush, then the
    server closes everything and returns its final metrics snapshot.

    {b Operational surface.}  With [metrics_port] set, shard 0 also
    serves a loopback HTTP/1.0 endpoint: [GET /metrics] renders the
    Prometheus text exposition ({!Exposition}) and [GET /health] answers
    200 while accepting and 503 for the whole drain window.  Each scrape
    is a {!Session} on shard 0 with an id from its own (negative) range,
    read and flushed by the same loop as the RPC connections; a scrape
    answered during the drain is written before shard 0 exits.  The
    stats snapshot reports the counters of the store attached through
    [Store.Result_cache], if any.  Request
    latency (arrival to response, read via {!Clock}) feeds per-verb
    histograms that appear {e only} in the exposition — the binary
    [stats] RPC stays clock-free and byte-deterministic. *)

type address = Unix_socket of string | Tcp of int

val describe_address : address -> string
(** ["unix:PATH"] or ["tcp:127.0.0.1:PORT"], as the lifecycle log prints it. *)

type config = {
  analysis : Fuzzy.Analysis.config;
      (** the configuration every served analysis runs under (seed,
          scale, interval geometry, [jobs] = pool width) *)
  queue_capacity : int;  (** bounded heavy-request queue *)
  max_connections : int;  (** cap; excess connections get [Busy] *)
  request_timeout : float option;  (** max seconds queued, [None] = no limit *)
  io_shards : int;  (** accept/IO domains (clamped to at least 1) *)
  admission : Admission.config;  (** {!Admission.off} disables all gates *)
  metrics_port : int option;
      (** loopback TCP port for the HTTP [/metrics] + [/health]
          endpoint; [Some 0] binds an OS-assigned port (reported through
          [on_event] as "metrics listening on ..."); [None] = none.
          Scrapes never count as connections: they do not take RPC
          connection ids, the [max_connections] cap or admission
          budgets, and are answered even while draining. *)
}

val config_of_analysis : Fuzzy.Analysis.config -> config
(** Defaults: queue 64; 32 connections; no timeout; one IO shard;
    admission off; no metrics endpoint. *)

val run : ?on_event:(string -> unit) -> config -> address -> Metrics.snapshot
(** Bind, listen (backlog 128) and serve until drained ([Shutdown]
    request or SIGINT/SIGTERM).  Ingest streams run
    {!Online.Pipeline.default} under [analysis]; frames are capped at
    {!Wire.default_max_payload}.  [on_event] receives human-readable
    lifecycle lines ("listening on ...", "draining ..."); the library
    itself never prints.  Returns the final metrics snapshot. *)
