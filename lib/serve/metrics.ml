(* Counters, plus per-verb latency histograms for the HTTP /metrics
   exposition.  The counters are a deterministic function of the request
   history and travel over the binary stats RPC; the histograms are the
   one deliberately clock-fed surface (observed via Serve.Clock at the
   response sites) and are exposed ONLY through [latency] — they never
   enter [snapshot], so the stats RPC stays byte-identical run to run.

   [table] declares every metric once.  The stats frame, [render] and
   the exposition each fold over it, so they share its order. *)

module Expo = Metrics_http.Expo

(* Fixed log-spaced bucket upper bounds, in seconds: 1 us doubling up to
   ~8.4 s (24 bounds + overflow).  Fixed at build time so dashboards and
   the golden exposition transcript never see a bucket layout change
   without a code change. *)
let bucket_bounds = Array.init 24 (fun i -> 1e-6 *. Float.of_int (1 lsl i))

type hist_snapshot = {
  hist_kind : string;
  hist_buckets : int array;
  hist_sum : float;
  hist_count : int;
}

type snapshot = {
  connections_accepted : int;
  connections_active : int;
  connections_refused : int;
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

let zero =
  {
    connections_accepted = 0; connections_active = 0; connections_refused = 0;
    requests_total = 0; requests_by_kind = []; responses_ok = 0; responses_error = [];
    batch_joined = 0; cache_hits = 0; cache_misses = 0;
    store_hits = 0; store_misses = 0; store_writes = 0; store_corrupt = 0;
    queue_high_water = 0; inflight_high_water = 0; io_shards = 0; accepted_by_shard = [];
    admission_admitted = 0; admission_rate_limited = 0; admission_too_large = 0;
    admission_breaker_rejected = 0; admission_breaker_trips = 0;
  }

(* ------------------------------- table ------------------------------ *)

type live = { queue_depth : int; inflight : int; draining : bool }

type field =
  | Scalar of { key : string; get : snapshot -> int; set : snapshot -> int -> snapshot }
  | Labelled of {
      key : string;
      label : string;
      get : snapshot -> (string * int) list;
      set : snapshot -> (string * int) list -> snapshot;
    }
  | Live of (live -> int)
  | Latency of { label : string }

type row = { family : string; help : string; kind : Expo.kind; field : field }

let row kind family help field = { family; help; kind; field }
let counter = row Expo.Counter
let gauge = row Expo.Gauge
let scalar key get set = Scalar { key; get; set }
let labelled key label get set = Labelled { key; label; get; set }

let table =
  [
    counter "repro_connections_accepted_total"
      "Connections accepted across all IO shards."
      (scalar "connections.accepted" (fun s -> s.connections_accepted)
         (fun s v -> { s with connections_accepted = v }));
    gauge "repro_connections_active" "Currently open client sessions."
      (scalar "connections.active" (fun s -> s.connections_active)
         (fun s v -> { s with connections_active = v }));
    counter "repro_connections_refused_total"
      "Connections turned away at the max-connections cap."
      (scalar "connections.refused" (fun s -> s.connections_refused)
         (fun s v -> { s with connections_refused = v }));
    counter "repro_requests_total" "Requests decoded and admitted to routing."
      (scalar "requests.total" (fun s -> s.requests_total)
         (fun s v -> { s with requests_total = v }));
    counter "repro_requests_kind_total" "Requests decoded, by verb."
      (labelled "requests." "kind" (fun s -> s.requests_by_kind)
         (fun s v -> { s with requests_by_kind = v }));
    counter "repro_responses_ok_total" "Successful responses sent."
      (scalar "responses.ok" (fun s -> s.responses_ok)
         (fun s v -> { s with responses_ok = v }));
    counter "repro_responses_error_total" "Error responses sent, by error code."
      (labelled "responses.error." "code" (fun s -> s.responses_error)
         (fun s v -> { s with responses_error = v }));
    counter "repro_batch_joined_total"
      "Requests answered by joining an identical in-flight computation."
      (scalar "batch.joined" (fun s -> s.batch_joined)
         (fun s v -> { s with batch_joined = v }));
    counter "repro_cache_hits_total" "Requests served from the in-memory analysis cache."
      (scalar "cache.hits" (fun s -> s.cache_hits)
         (fun s v -> { s with cache_hits = v }));
    counter "repro_cache_misses_total"
      "Requests that missed the in-memory analysis cache."
      (scalar "cache.misses" (fun s -> s.cache_misses)
         (fun s v -> { s with cache_misses = v }));
    counter "repro_store_hits_total" "Requests served from the persistent result store."
      (scalar "store.hits" (fun s -> s.store_hits)
         (fun s v -> { s with store_hits = v }));
    counter "repro_store_misses_total"
      "Persistent-store lookups that found no valid entry."
      (scalar "store.misses" (fun s -> s.store_misses)
         (fun s v -> { s with store_misses = v }));
    counter "repro_store_writes_total" "New entries persisted to the result store."
      (scalar "store.writes" (fun s -> s.store_writes)
         (fun s v -> { s with store_writes = v }));
    counter "repro_store_corrupt_total" "Persistent-store entries quarantined as invalid."
      (scalar "store.corrupt" (fun s -> s.store_corrupt)
         (fun s v -> { s with store_corrupt = v }));
    gauge "repro_queue_depth" "Heavy requests waiting in the bounded queue."
      (Live (fun l -> l.queue_depth));
    gauge "repro_queue_high_water" "Deepest the bounded request queue has been."
      (scalar "queue.high_water" (fun s -> s.queue_high_water)
         (fun s v -> { s with queue_high_water = v }));
    gauge "repro_inflight" "Pool tasks currently outstanding."
      (Live (fun l -> l.inflight));
    gauge "repro_inflight_high_water" "Most pool tasks outstanding at once."
      (scalar "inflight.high_water" (fun s -> s.inflight_high_water)
         (fun s v -> { s with inflight_high_water = v }));
    gauge "repro_io_shards" "Accept/IO domains this server runs."
      (scalar "io.shards" (fun s -> s.io_shards) (fun s v -> { s with io_shards = v }));
    counter "repro_shard_accepted_total" "Connections assigned, by two-digit IO shard id."
      (labelled "connections.shard." "shard" (fun s -> s.accepted_by_shard)
         (fun s v -> { s with accepted_by_shard = v }));
    counter "repro_admission_admitted_total" "Heavy requests past every admission gate."
      (scalar "admission.admitted" (fun s -> s.admission_admitted)
         (fun s v -> { s with admission_admitted = v }));
    counter "repro_admission_rate_limited_total"
      "Requests refused with an empty peer token bucket."
      (scalar "admission.rate_limited" (fun s -> s.admission_rate_limited)
         (fun s v -> { s with admission_rate_limited = v }));
    counter "repro_admission_too_large_total" "Requests refused as over the size budget."
      (scalar "admission.too_large" (fun s -> s.admission_too_large)
         (fun s v -> { s with admission_too_large = v }));
    counter "repro_admission_breaker_rejected_total"
      "Requests refused by an open peer circuit breaker."
      (scalar "admission.breaker_rejected" (fun s -> s.admission_breaker_rejected)
         (fun s v -> { s with admission_breaker_rejected = v }));
    counter "repro_admission_breaker_trips_total" "Times any peer circuit breaker opened."
      (scalar "admission.breaker_trips" (fun s -> s.admission_breaker_trips)
         (fun s v -> { s with admission_breaker_trips = v }));
    gauge "repro_draining"
      "One while a graceful shutdown is draining queued work, else zero."
      (Live (fun l -> Bool.to_int l.draining));
    row Expo.Histogram "repro_request_duration_seconds"
      "Request wall-clock latency by verb, request decode to response."
      (Latency { label = "kind" });
  ]

(* ------------------------------ counting ---------------------------- *)

type t = {
  mutable counts : snapshot;
      (* everything counted here; the store and admission fields stay
         zero until [snapshot] reads them from their owners *)
  admission : Admission.t option;
  lat : (string, hist_snapshot) Hashtbl.t;  (* verb -> latency histogram *)
}

let create ?admission () =
  { counts = { zero with io_shards = 1 }; admission; lat = Hashtbl.create 8 }

let update t f = t.counts <- f t.counts

(* The lists stay sorted by key, the order (D003) the snapshot hands
   them out in. *)
let rec bump key = function
  | (k, n) :: rest when String.equal k key -> (k, n + 1) :: rest
  | ((k, _) as p) :: rest when String.compare k key < 0 -> p :: bump key rest
  | l -> (key, 1) :: l

let incr_accepted t =
  update t (fun s -> { s with connections_accepted = s.connections_accepted + 1 })

let incr_refused t =
  update t (fun s -> { s with connections_refused = s.connections_refused + 1 })

let set_active t n = update t (fun s -> { s with connections_active = n })

let incr_request t ~kind =
  update t (fun s ->
      { s with requests_total = s.requests_total + 1;
               requests_by_kind = bump kind s.requests_by_kind })

let incr_ok t = update t (fun s -> { s with responses_ok = s.responses_ok + 1 })

let incr_error t ~code =
  update t (fun s -> { s with responses_error = bump code s.responses_error })

let incr_batch_joined t = update t (fun s -> { s with batch_joined = s.batch_joined + 1 })
let incr_cache_hit t = update t (fun s -> { s with cache_hits = s.cache_hits + 1 })
let incr_cache_miss t = update t (fun s -> { s with cache_misses = s.cache_misses + 1 })
let set_io_shards t n = update t (fun s -> { s with io_shards = n })

(* Two-digit keys so the sorted snapshot traversal is numeric order up
   to the practical shard ceiling. *)
let incr_shard_accept t ~shard =
  update t (fun s ->
      { s with accepted_by_shard = bump (Printf.sprintf "%02d" shard) s.accepted_by_shard })

let observe_queue_depth t n =
  if n > t.counts.queue_high_water then update t (fun s -> { s with queue_high_water = n })

let observe_inflight t n =
  if n > t.counts.inflight_high_water then
    update t (fun s -> { s with inflight_high_water = n })

(* Copy on write: [latency] hands out the stored records as they are. *)
let observe_latency t ~kind ~seconds =
  (* A clock step backwards must not poison the histogram. *)
  let seconds = Float.max 0.0 seconds in
  let nbounds = Array.length bucket_bounds in
  let rec bucket i =
    if i >= nbounds || seconds <= bucket_bounds.(i) then i else bucket (i + 1)
  in
  let h =
    match Hashtbl.find_opt t.lat kind with
    | Some h -> h
    | None ->
        { hist_kind = kind; hist_buckets = Array.make (nbounds + 1) 0; hist_sum = 0.0;
          hist_count = 0 }
  in
  let buckets = Array.copy h.hist_buckets in
  let i = bucket 0 in
  buckets.(i) <- buckets.(i) + 1;
  Hashtbl.replace t.lat kind
    { h with hist_buckets = buckets; hist_sum = h.hist_sum +. seconds;
             hist_count = h.hist_count + 1 }

let latency t = List.map snd (Stats.Det.hashtbl_bindings t.lat)

(* The store and lib/admission own their running totals; they are read
   here, when the snapshot is taken, rather than mirrored event by
   event. *)
let snapshot t =
  let s = t.counts in
  let s =
    match Store.Result_cache.counters () with
    | None -> s
    | Some { Store.Cas.hits; misses; writes; corrupt } ->
        { s with store_hits = hits; store_misses = misses; store_writes = writes;
                 store_corrupt = corrupt }
  in
  match Option.map Admission.counters t.admission with
  | None -> s
  | Some { Admission.admitted; rate_limited; too_large; breaker_rejected; breaker_trips } ->
      { s with admission_admitted = admitted; admission_rate_limited = rate_limited;
               admission_too_large = too_large; admission_breaker_rejected = breaker_rejected;
               admission_breaker_trips = breaker_trips }

let render (s : snapshot) =
  let b = Buffer.create 512 in
  let line k v = Printf.bprintf b "  %-28s %d\n" k v in
  Buffer.add_string b "serve metrics\n";
  List.iter
    (fun r ->
      match r.field with
      | Scalar { key; get; _ } -> line key (get s)
      | Labelled { key; get; _ } -> List.iter (fun (k, v) -> line (key ^ k) v) (get s)
      | Live _ | Latency _ -> ())
    table;
  Buffer.contents b
