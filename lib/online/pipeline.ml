module Eipv = Sampling.Eipv

type config = {
  analysis : Fuzzy.Analysis.config;
  window : int;
  reservoir : int;
  warmup_intervals : int;
}

let default =
  {
    analysis = Fuzzy.Analysis.default;
    window = 16;
    reservoir = 256;
    warmup_intervals = 8;
  }

let quick = { default with analysis = Fuzzy.Analysis.quick; window = 8 }

(* Refit policy: at least 8 sealed intervals between triggers, each
   published one interval after it fired. *)
let refit_spacing = 8
let refit_latency = 1

type footprint = {
  pending_samples : int;
  reservoir_occupancy : int;
  window_occupancy : int;
  n_features : int;
}

type final = {
  name : string;
  intervals : int;
  samples : int;
  cpi : float;
  cpi_variance : float;
  curve : Rtree.Cv.curve;
  kopt : int;
  re_kopt : float;
  quadrant : Fuzzy.Quadrant.t;
  confidence : float;
  refits : int;
  drift_events : int;
  exact : bool;
}

type t = {
  name : string;
  config : config;
  builder : Eipv.Builder.t;
  drift : Drift.t;
  classifier : Classifier.t;
  reservoir : Eipv.interval Reservoir.t;
  refit : Refit.t;
  pool : Parallel.Pool.t;
  mutable samples_fed : int;
  mutable total_instrs : int;
  mutable total_cycles : float;
}

let create ?(name = "stream") config =
  let a = config.analysis in
  let spi = a.Fuzzy.Analysis.samples_per_interval in
  let pool = Parallel.Pool.shared ~jobs:a.Fuzzy.Analysis.jobs in
  {
    name;
    config;
    builder = Eipv.Builder.create ~samples_per_interval:spi;
    drift = Drift.create ~samples_per_interval:spi;
    classifier = Classifier.create ~window:config.window;
    reservoir =
      Reservoir.create ~capacity:config.reservoir
        ~rng:(Stats.Rng.split_label a.Fuzzy.Analysis.seed ("online-reservoir-" ^ name));
    refit =
      Refit.create ~seed:a.Fuzzy.Analysis.seed ~folds:a.Fuzzy.Analysis.folds
        ~kmax:a.Fuzzy.Analysis.kmax ~kopt_tol:a.Fuzzy.Analysis.kopt_tol
        ~min_intervals:config.warmup_intervals ~spacing:refit_spacing ~latency:refit_latency
        ~pool;
    pool;
    samples_fed = 0;
    total_instrs = 0;
    total_cycles = 0.0;
  }

let feed t (s : Sampling.Driver.sample) =
  t.samples_fed <- t.samples_fed + 1;
  t.total_instrs <- t.total_instrs + s.Sampling.Driver.instrs;
  t.total_cycles <- t.total_cycles +. s.Sampling.Driver.cycles;
  Drift.observe_sample t.drift
    ~cpi:(s.Sampling.Driver.cycles /. float_of_int (max 1 s.Sampling.Driver.instrs));
  match Eipv.Builder.feed t.builder s with
  | None -> None
  | Some iv ->
      let interval = Eipv.Builder.sealed t.builder - 1 in
      Classifier.observe t.classifier ~cpi:iv.Eipv.cpi;
      Reservoir.add t.reservoir iv;
      let drift = Drift.observe_interval t.drift iv in
      let published = Refit.poll t.refit ~interval in
      (match published with
      | Some o -> Classifier.publish t.classifier ~re:o.Refit.re_kopt ~kopt:o.Refit.kopt
      | None -> ());
      ignore
        (Refit.maybe_trigger t.refit ~interval ~drift ~window:(fun () ->
             Reservoir.contents t.reservoir));
      Some (Classifier.verdict t.classifier ~interval ~drift ~refit:(published <> None))

let footprint t =
  {
    pending_samples = Eipv.Builder.pending_samples t.builder;
    reservoir_occupancy = Reservoir.occupancy t.reservoir;
    window_occupancy = min (Classifier.n t.classifier) t.config.window;
    n_features = Eipv.Builder.n_features t.builder;
  }

let finalize t =
  (* A still-in-flight refit is drained (its result is stale but its
     training cost is already sunk); the verdict then comes from a final
     fit over everything the reservoir holds. *)
  (match Refit.drain t.refit with
  | Some o -> Classifier.publish t.classifier ~re:o.Refit.re_kopt ~kopt:o.Refit.kopt
  | None -> ());
  let window = Reservoir.contents t.reservoir in
  if Array.length window < 2 then
    invalid_arg "Online.Pipeline.finalize: need at least 2 sealed intervals";
  let exact = Reservoir.seen t.reservoir <= Reservoir.capacity t.reservoir in
  let a = t.config.analysis in
  let rows = Array.map (fun iv -> iv.Eipv.eipv) window in
  let y = Array.map (fun iv -> iv.Eipv.cpi) window in
  let ds = Rtree.Dataset.make ~rows ~y in
  (* Same RNG as Analysis.of_intervals: when [exact], this is the very
     computation the offline path runs, on the very same rows. *)
  let curve =
    Rtree.Cv.relative_error_curve ~pool:t.pool ~folds:a.Fuzzy.Analysis.folds
      ~kmax:a.Fuzzy.Analysis.kmax
      (Stats.Rng.create (a.Fuzzy.Analysis.seed + 1))
      ds
  in
  let kopt = Rtree.Cv.kopt curve ~tol:a.Fuzzy.Analysis.kopt_tol in
  let re_kopt = Rtree.Cv.re_at curve kopt in
  Classifier.publish t.classifier ~re:re_kopt ~kopt;
  let cpi_variance = Classifier.cpi_variance t.classifier in
  let final_verdict =
    Classifier.verdict t.classifier
      ~interval:(Eipv.Builder.sealed t.builder - 1)
      ~drift:false ~refit:true
  in
  {
    name = t.name;
    intervals = Eipv.Builder.sealed t.builder;
    samples = t.samples_fed;
    cpi =
      (if t.total_instrs = 0 then 0.0
       else t.total_cycles /. float_of_int t.total_instrs);
    cpi_variance;
    curve;
    kopt;
    re_kopt;
    quadrant = Fuzzy.Quadrant.classify ~cpi_variance ~re:re_kopt ();
    confidence = final_verdict.Classifier.confidence;
    refits = Refit.count t.refit;
    drift_events = Drift.events t.drift;
    exact;
  }

let run_model ?(on_verdict = fun (_ : Classifier.verdict) -> ()) config
    (model : Workload.Model.t) =
  let a = config.analysis in
  let cpu = March.Cpu.create a.Fuzzy.Analysis.machine in
  (* Same per-workload stream derivation as Analysis.analyze_model: the
     sample sequence the pipeline sees is byte-identical to the offline
     run's. *)
  let rng = Stats.Rng.split_label a.Fuzzy.Analysis.seed model.Workload.Model.name in
  let samples = a.Fuzzy.Analysis.intervals * a.Fuzzy.Analysis.samples_per_interval in
  let t = create ~name:model.Workload.Model.name config in
  let _meta =
    Sampling.Driver.stream ~period:a.Fuzzy.Analysis.period model ~cpu ~rng ~samples
      ~f:(fun _ s -> match feed t s with Some v -> on_verdict v | None -> ())
  in
  finalize t

let run ?on_verdict config name =
  let entry = Workload.Catalog.find name in
  run_model ?on_verdict config
    (entry.Workload.Catalog.build ~seed:config.analysis.Fuzzy.Analysis.seed
       ~scale:config.analysis.Fuzzy.Analysis.scale)

let pp_final ppf (f : final) =
  Format.fprintf ppf
    "%s: final quadrant=%s cpi=%.6f var=%.6f re_kopt=%.6f (k_opt=%d) conf=%.3f over %d \
     intervals (%d samples), %d refit%s, %d drift event%s%s"
    f.name
    (Fuzzy.Quadrant.to_string f.quadrant)
    f.cpi f.cpi_variance f.re_kopt f.kopt f.confidence f.intervals f.samples f.refits
    (if f.refits = 1 then "" else "s")
    f.drift_events
    (if f.drift_events = 1 then "" else "s")
    (if f.exact then " [exact: trained on full history]"
     else " [approximate: reservoir overflowed]")
