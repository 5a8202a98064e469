(* Map the server's metrics into the Prometheus exposition model: one
   family per row of [Metrics.table], in its order, so the golden
   transcript in test/golden/ and the format lint in
   scripts/check_metrics.sh both pin that table.  Names use the narrowed
   [a-z_:]+ charset Expo enforces (no digits — per-shard and per-verb
   identity travels in labels). *)

module Expo = Metrics_http.Expo

let render ~(snapshot : Metrics.snapshot) ~latency ~queue_depth ~inflight
    ~draining =
  let live = { Metrics.queue_depth; inflight; draining } in
  let sample labels v = { Expo.labels; value = Expo.Value (float_of_int v) } in
  let samples : Metrics.field -> Expo.sample list = function
    | Scalar { get; _ } -> [ sample [] (get snapshot) ]
    | Labelled { label; get; _ } ->
        List.map (fun (k, v) -> sample [ (label, k) ] v) (get snapshot)
    | Live get -> [ sample [] (get live) ]
    | Latency { label } ->
        List.map
          (fun (h : Metrics.hist_snapshot) ->
            {
              Expo.labels = [ (label, h.hist_kind) ];
              value =
                Expo.Hist
                  {
                    Expo.bounds = Metrics.bucket_bounds;
                    counts = h.hist_buckets;
                    sum = h.hist_sum;
                    count = h.hist_count;
                  };
            })
          latency
  in
  Expo.render
    (List.map
       (fun (r : Metrics.row) ->
         { Expo.name = r.family; help = r.help; kind = r.kind; samples = samples r.field })
       Metrics.table)
