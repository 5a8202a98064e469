(* The streaming subsystem's contracts:

   - the online Welford/window sketch matches the batch statistics
     (QCheck, two independent implementations);
   - the incremental EIPV builder is byte-equivalent to the batch
     constructor;
   - the reservoir is deterministic, bounded and order-preserving while
     it has room;
   - Page-Hinkley alarms on real mean shifts and stays quiet on
     stationary input;
   - end to end, the online pipeline's final verdict coincides with the
     offline analysis on a quadrant-spanning catalog subset, at
     jobs=1 and jobs=4;
   - memory stays bounded on runs 10x the reservoir size;
   - trace archives are written atomically. *)

module Analysis = Fuzzy.Analysis
module Pipeline = Online.Pipeline

let tiny ~jobs =
  {
    Analysis.quick with
    Analysis.intervals = 24;
    samples_per_interval = 20;
    scale = 0.1;
    kmax = 12;
    folds = 5;
    jobs;
  }

let tiny_online ~jobs = { Pipeline.quick with Pipeline.analysis = tiny ~jobs }

(* ------------------------- sketch vs batch -------------------------- *)

let qcheck_sketch_matches_describe =
  let gen =
    QCheck2.Gen.(
      pair
        (list_size (int_range 2 200) (float_range (-50.0) 50.0))
        (int_range 2 24))
  in
  QCheck2.Test.make ~name:"sketch mean/variance/window match batch Describe" ~count:300 gen
    (fun (xs, window) ->
      let s = Online.Sketch.create ~window () in
      List.iter (Online.Sketch.add s) xs;
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let tail =
        Array.sub arr (max 0 (n - window)) (min n window)
      in
      let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b) in
      let mean = if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 arr /. float_of_int n in
      close (Online.Sketch.mean s) mean
      && close (Online.Sketch.variance s) (Stats.Describe.variance arr)
      && close (Online.Sketch.window_variance s) (Stats.Describe.variance tail)
      && Online.Sketch.n s = n
      && Online.Sketch.window_fill s = Array.length tail)

(* --------------------- builder vs batch EIPVs ----------------------- *)

let tiny_run () =
  let cfg = tiny ~jobs:1 in
  let entry = Workload.Catalog.find "gzip" in
  let model = entry.Workload.Catalog.build ~seed:cfg.Analysis.seed ~scale:cfg.Analysis.scale in
  let cpu = March.Cpu.create cfg.Analysis.machine in
  let rng = Stats.Rng.split_label cfg.Analysis.seed model.Workload.Model.name in
  ( cfg,
    Sampling.Driver.run ~period:cfg.Analysis.period model ~cpu ~rng
      ~samples:(cfg.Analysis.intervals * cfg.Analysis.samples_per_interval) )

let assoc_of_sv sv =
  let acc = ref [] in
  Stats.Sparse_vec.iter (fun f c -> acc := (f, c) :: !acc) sv;
  List.rev !acc

let test_builder_matches_batch () =
  let cfg, run = tiny_run () in
  let spi = cfg.Analysis.samples_per_interval in
  let batch = Sampling.Eipv.build run ~samples_per_interval:spi in
  let b = Sampling.Eipv.Builder.create ~samples_per_interval:spi in
  let streamed = ref [] in
  Array.iter
    (fun s ->
      match Sampling.Eipv.Builder.feed b s with
      | Some iv -> streamed := iv :: !streamed
      | None -> ())
    run.Sampling.Driver.samples;
  let streamed = Array.of_list (List.rev !streamed) in
  Alcotest.(check int) "interval count" (Array.length batch.Sampling.Eipv.intervals)
    (Array.length streamed);
  Alcotest.(check int) "n_features" batch.Sampling.Eipv.n_features
    (Sampling.Eipv.Builder.n_features b);
  Array.iteri
    (fun i (biv : Sampling.Eipv.interval) ->
      let siv = streamed.(i) in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "interval %d cpi" i)
        biv.Sampling.Eipv.cpi siv.Sampling.Eipv.cpi;
      Alcotest.(check int)
        (Printf.sprintf "interval %d first_sample" i)
        biv.Sampling.Eipv.first_sample siv.Sampling.Eipv.first_sample;
      Alcotest.(check (list (pair int (float 0.0))))
        (Printf.sprintf "interval %d eipv" i)
        (assoc_of_sv biv.Sampling.Eipv.eipv)
        (assoc_of_sv siv.Sampling.Eipv.eipv))
    batch.Sampling.Eipv.intervals

(* ---------------------------- reservoir ----------------------------- *)

let test_reservoir_prefix_order () =
  let r = Online.Reservoir.create ~capacity:8 ~rng:(Stats.Rng.split_label 1 "res") in
  for i = 1 to 8 do
    Online.Reservoir.add r i
  done;
  Alcotest.(check (array int)) "holds every item in order" [| 1; 2; 3; 4; 5; 6; 7; 8 |]
    (Online.Reservoir.contents r);
  Alcotest.(check int) "seen" 8 (Online.Reservoir.seen r)

let test_reservoir_bounded_and_deterministic () =
  let mk () = Online.Reservoir.create ~capacity:8 ~rng:(Stats.Rng.split_label 1 "res") in
  let a = mk () and b = mk () in
  for i = 1 to 500 do
    Online.Reservoir.add a i;
    Online.Reservoir.add b i
  done;
  Alcotest.(check int) "occupancy capped" 8 (Online.Reservoir.occupancy a);
  Alcotest.(check int) "seen counts offers" 500 (Online.Reservoir.seen a);
  Alcotest.(check (array int)) "same seed, same stream, same contents"
    (Online.Reservoir.contents a) (Online.Reservoir.contents b);
  Array.iter
    (fun x -> Alcotest.(check bool) "contents from stream" true (x >= 1 && x <= 500))
    (Online.Reservoir.contents a)

(* --------------------------- page-hinkley --------------------------- *)

let test_ph_quiet_on_stationary () =
  let ph = Online.Drift.Page_hinkley.create ~delta:0.05 ~lambda:5.0 () in
  for _ = 1 to 500 do
    ignore (Online.Drift.Page_hinkley.observe ph 1.0)
  done;
  Alcotest.(check int) "no alarms on a constant stream" 0
    (Online.Drift.Page_hinkley.alarms ph)

let test_ph_alarms_on_shift () =
  let ph = Online.Drift.Page_hinkley.create ~delta:0.05 ~lambda:5.0 () in
  for _ = 1 to 100 do
    ignore (Online.Drift.Page_hinkley.observe ph 1.0)
  done;
  Alcotest.(check int) "quiet before the shift" 0 (Online.Drift.Page_hinkley.alarms ph);
  for _ = 1 to 100 do
    ignore (Online.Drift.Page_hinkley.observe ph 3.0)
  done;
  Alcotest.(check bool) "alarms after a 2.0 mean shift" true
    (Online.Drift.Page_hinkley.alarms ph >= 1)

let test_ph_alarms_on_downward_shift () =
  let ph = Online.Drift.Page_hinkley.create ~delta:0.05 ~lambda:5.0 () in
  for _ = 1 to 100 do
    ignore (Online.Drift.Page_hinkley.observe ph 3.0)
  done;
  for _ = 1 to 100 do
    ignore (Online.Drift.Page_hinkley.observe ph 1.0)
  done;
  Alcotest.(check bool) "alarms after a downward shift" true
    (Online.Drift.Page_hinkley.alarms ph >= 1)

(* ------------------- online/offline equivalence --------------------- *)

(* One workload per quadrant corner plus the two DSS queries: the final
   online verdict must land exactly where the offline analysis does,
   because with the reservoir sized to the run the finalize step runs the
   very same CV over the very same rows. *)
let equivalence_subset = [ "odb_c"; "sjas"; "odb_h_q13"; "odb_h_q18"; "mcf"; "gcc" ]

let check_final_matches_offline name (f : Pipeline.final) (a : Analysis.t) =
  Alcotest.(check bool) (name ^ ": finalize used full history") true f.Pipeline.exact;
  Alcotest.(check string)
    (name ^ ": quadrant")
    (Fuzzy.Quadrant.to_string a.Analysis.quadrant)
    (Fuzzy.Quadrant.to_string f.Pipeline.quadrant);
  Alcotest.(check (float 1e-12)) (name ^ ": cpi variance") a.Analysis.cpi_variance
    f.Pipeline.cpi_variance;
  Alcotest.(check (float 1e-12)) (name ^ ": re_kopt") a.Analysis.re_kopt f.Pipeline.re_kopt;
  Alcotest.(check int) (name ^ ": kopt") a.Analysis.kopt f.Pipeline.kopt;
  Alcotest.(check (array (float 1e-12)))
    (name ^ ": re curve")
    a.Analysis.curve.Rtree.Cv.re f.Pipeline.curve.Rtree.Cv.re

let test_online_matches_offline name () =
  let offline = Analysis.analyze (tiny ~jobs:1) name in
  let serial = Pipeline.run (tiny_online ~jobs:1) name in
  let parallel = Pipeline.run (tiny_online ~jobs:4) name in
  check_final_matches_offline (name ^ " jobs=1") serial offline;
  check_final_matches_offline (name ^ " jobs=4") parallel offline;
  Alcotest.(check int) (name ^ ": refit count independent of jobs") serial.Pipeline.refits
    parallel.Pipeline.refits;
  Alcotest.(check int) (name ^ ": drift count independent of jobs")
    serial.Pipeline.drift_events parallel.Pipeline.drift_events

let test_verdict_trace_independent_of_jobs () =
  let trace jobs =
    let acc = ref [] in
    let f =
      Pipeline.run
        ~on_verdict:(fun v -> acc := Format.asprintf "%a" Online.Classifier.pp_verdict v :: !acc)
        (tiny_online ~jobs) "odb_h_q13"
    in
    (List.rev !acc, f)
  in
  let t1, f1 = trace 1 and t4, f4 = trace 4 in
  Alcotest.(check (list string)) "per-interval verdicts bit-identical" t1 t4;
  Alcotest.(check string) "final render bit-identical"
    (Format.asprintf "%a" Pipeline.pp_final f1)
    (Format.asprintf "%a" Pipeline.pp_final f4)

(* -------------------------- bounded memory -------------------------- *)

let test_memory_bounded_on_long_run () =
  let capacity = 16 in
  let base = tiny ~jobs:1 in
  (* 10x the reservoir-sized run: state must saturate, not grow. *)
  let cfg =
    {
      Pipeline.quick with
      Pipeline.analysis = { base with Analysis.intervals = capacity * 10 };
      reservoir = capacity;
      window = 8;
    }
  in
  let a = cfg.Pipeline.analysis in
  let entry = Workload.Catalog.find "gzip" in
  let model = entry.Workload.Catalog.build ~seed:a.Analysis.seed ~scale:a.Analysis.scale in
  let cpu = March.Cpu.create a.Analysis.machine in
  let rng = Stats.Rng.split_label a.Analysis.seed model.Workload.Model.name in
  let spi = a.Analysis.samples_per_interval in
  let t = Pipeline.create ~name:model.Workload.Model.name cfg in
  let unique_eips = Hashtbl.create 256 in
  let max_reservoir = ref 0 and max_window = ref 0 and max_pending = ref 0 in
  let _ =
    Sampling.Driver.stream ~period:a.Analysis.period model ~cpu ~rng
      ~samples:(a.Analysis.intervals * spi)
      ~f:(fun _ s ->
        Hashtbl.replace unique_eips s.Sampling.Driver.eip ();
        ignore (Pipeline.feed t s);
        let fp = Pipeline.footprint t in
        max_reservoir := max !max_reservoir fp.Pipeline.reservoir_occupancy;
        max_window := max !max_window fp.Pipeline.window_occupancy;
        max_pending := max !max_pending fp.Pipeline.pending_samples)
  in
  Alcotest.(check int) "reservoir never exceeds capacity" capacity !max_reservoir;
  Alcotest.(check int) "window never exceeds its width" 8 !max_window;
  Alcotest.(check bool) "pending stays below one interval" true (!max_pending < spi);
  let fp = Pipeline.footprint t in
  (* Feature state scales with the code footprint, not the stream. *)
  Alcotest.(check bool) "features bounded by unique EIPs" true
    (fp.Pipeline.n_features <= Hashtbl.length unique_eips);
  let f = Pipeline.finalize t in
  Alcotest.(check bool) "10x run is approximate, not exact" false f.Pipeline.exact;
  Alcotest.(check int) "all intervals were sealed" (capacity * 10) f.Pipeline.intervals

(* --------------------------- atomic save ---------------------------- *)

let test_save_is_atomic_and_clean () =
  let _, run = tiny_run () in
  let dir = Filename.temp_file "fuzzy_online_test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path = Filename.concat dir "trace.evs" in
  Sampling.Trace_io.save run ~path;
  (* Overwrite must also go through the temp-and-rename path. *)
  Sampling.Trace_io.save run ~path;
  let reloaded = Sampling.Trace_io.load ~path in
  Alcotest.(check int) "samples survive the round trip"
    (Array.length run.Sampling.Driver.samples)
    (Array.length reloaded.Sampling.Driver.samples);
  Alcotest.(check (float 0.0)) "cycles survive the round trip" run.Sampling.Driver.total_cycles
    reloaded.Sampling.Driver.total_cycles;
  let leftovers =
    Sys.readdir dir |> Array.to_list |> List.filter (fun f -> f <> "trace.evs")
  in
  Alcotest.(check (list string)) "no stray temp files" [] leftovers;
  Sys.remove path;
  Sys.rmdir dir

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "online"
    [
      ("sketch", qcheck [ qcheck_sketch_matches_describe ]);
      ( "builder",
        [ Alcotest.test_case "incremental = batch EIPVs" `Quick test_builder_matches_batch ] );
      ( "reservoir",
        [
          Alcotest.test_case "prefix kept in order" `Quick test_reservoir_prefix_order;
          Alcotest.test_case "bounded and deterministic" `Quick
            test_reservoir_bounded_and_deterministic;
        ] );
      ( "page-hinkley",
        [
          Alcotest.test_case "quiet on stationary input" `Quick test_ph_quiet_on_stationary;
          Alcotest.test_case "alarms on upward shift" `Quick test_ph_alarms_on_shift;
          Alcotest.test_case "alarms on downward shift" `Quick
            test_ph_alarms_on_downward_shift;
        ] );
      ( "equivalence",
        List.map
          (fun name ->
            Alcotest.test_case (name ^ " online = offline") `Slow
              (test_online_matches_offline name))
          equivalence_subset
        @ [
            Alcotest.test_case "verdict trace independent of jobs" `Slow
              test_verdict_trace_independent_of_jobs;
          ] );
      ( "memory",
        [ Alcotest.test_case "bounded on a 10x run" `Slow test_memory_bounded_on_long_run ] );
      ( "trace-io",
        [ Alcotest.test_case "atomic save" `Quick test_save_is_atomic_and_clean ] );
    ]
