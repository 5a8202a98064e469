(** The server's Prometheus exposition: every family [GET /metrics]
    serves, one per row of {!Metrics.table} and in its order.

    Pure — the HTTP layer calls it under the server's core lock and
    writes the string out. *)

val render :
  snapshot:Metrics.snapshot ->
  latency:Metrics.hist_snapshot list ->
  queue_depth:int ->
  inflight:int ->
  draining:bool ->
  string
(** [queue_depth], [inflight] and [draining] are the table's
    {!Metrics.Live} gauges, read at the scrape: the snapshot only
    records the high-water marks of the first two, and [draining] is
    true between a shutdown request and the last queued response. *)
