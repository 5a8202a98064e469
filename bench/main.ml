(* Benchmark harness.

   Running `dune exec bench/main.exe` does two things:

   1. regenerates every table and figure of the paper (the experiment
      reproduction — the rows/series the paper reports), at a scale set
      by REPRO_INTERVALS (default 256, the full experiment);
   2. runs one Bechamel micro-benchmark per table/figure kernel plus the
      ablation benches called out in DESIGN.md, reporting ns/run.

   `dune exec bench/main.exe -- --bench-only` or `--experiments-only`
   restricts to one half; `--quick` shrinks the experiment scale;
   `--jobs N` sets the worker-domain count for the CV fold fan-out and
   multi-workload sweeps (default: JOBS env, else the recommended domain
   count capped at 8).  Results are bit-identical for every N. *)

open Bechamel
open Toolkit

(* ------------------------- experiment harness ---------------------- *)

let experiment_config ~quick ~jobs =
  let intervals =
    match Sys.getenv_opt "REPRO_INTERVALS" with
    | Some s -> int_of_string s
    | None -> if quick then 64 else 256
  in
  { Fuzzy.Analysis.default with Fuzzy.Analysis.intervals; jobs }

let run_experiments config =
  let wall0 = Unix.gettimeofday () in
  List.iter
    (fun e ->
      Printf.printf "==================== %s ====================\n" e.Fuzzy.Experiments.id;
      Printf.printf "%s\npaper shape: %s\n\n" e.Fuzzy.Experiments.title
        e.Fuzzy.Experiments.paper_claim;
      let t0 = Sys.time () and w0 = Unix.gettimeofday () in
      print_string (e.Fuzzy.Experiments.run config);
      Printf.printf "[%s regenerated in %.1fs cpu, %.1fs wall]\n\n%!" e.Fuzzy.Experiments.id
        (Sys.time () -. t0)
        (Unix.gettimeofday () -. w0))
    Fuzzy.Experiments.all;
  Printf.printf "[experiments phase: %.1fs wall at jobs=%d]\n\n%!"
    (Unix.gettimeofday () -. wall0)
    config.Fuzzy.Analysis.jobs

(* --------------------------- ablation: trees ----------------------- *)

(* Naive dense split search, used only to quantify the sparse
   implementation's advantage (DESIGN.md ablation 1).  Same objective as
   Rtree.Tree's search, but it materialises every (row, feature) count
   and scans all features densely. *)
let naive_best_split rows y n_features =
  let n = Array.length rows in
  let dense =
    Array.map
      (fun r ->
        let d = Array.make n_features 0.0 in
        Stats.Sparse_vec.add_into_dense r d;
        d)
      rows
  in
  let best = ref None in
  for f = 0 to n_features - 1 do
    let order = Array.init n (fun i -> i) in
    Array.sort (fun a b -> compare dense.(a).(f) dense.(b).(f)) order;
    let lsum = ref 0.0 and lsq = ref 0.0 in
    let tsum = ref 0.0 and tsq = ref 0.0 in
    Array.iter
      (fun i ->
        tsum := !tsum +. y.(i);
        tsq := !tsq +. (y.(i) *. y.(i)))
      order;
    for pos = 0 to n - 2 do
      let i = order.(pos) in
      lsum := !lsum +. y.(i);
      lsq := !lsq +. (y.(i) *. y.(i));
      if dense.(order.(pos + 1)).(f) > dense.(i).(f) then begin
        let ln = float_of_int (pos + 1) and rn = float_of_int (n - pos - 1) in
        let lvar = !lsq -. (!lsum *. !lsum /. ln) in
        let rsum = !tsum -. !lsum and rsq = !tsq -. !lsq in
        let rvar = rsq -. (rsum *. rsum /. rn) in
        let sse = lvar +. rvar in
        match !best with
        | Some (_, _, b) when b <= sse -> ()
        | _ -> best := Some (f, dense.(i).(f), sse)
      end
    done
  done;
  !best

let synthetic_eipv_dataset ~rows ~features ~nnz =
  let rng = Stats.Rng.create 99 in
  let rs =
    Array.init rows (fun _ ->
        Stats.Sparse_vec.of_assoc
          (List.init nnz (fun _ ->
               (Stats.Rng.int rng features, float_of_int (1 + Stats.Rng.int rng 20)))))
  in
  let y = Array.map (fun r -> Stats.Sparse_vec.sum r +. Stats.Rng.float rng 5.0) rs in
  Rtree.Dataset.make ~rows:rs ~y

(* --------------------- core kernels (bench gate) -------------------- *)

(* The CI benchmark gate (scripts/bench_gate.sh) compares these kernels'
   medians against the committed BENCH_core.json baseline.  Medians are
   wall-clock over an odd number of reps — robust to one slow outlier —
   and the JSON carries a calibration figure (a fixed pure-OCaml loop)
   so the gate can normalise away machine-speed differences between the
   baseline host and the CI runner.  The schema is deterministic: fixed
   key order, fixed formatting, no timestamps or host names. *)

let core_median a =
  let b = Array.copy a in
  Array.sort compare b;
  b.(Array.length b / 2)

let time_reps reps f =
  ignore (Sys.opaque_identity (f ()));
  let samples = Array.make reps 0.0 in
  for i = 0 to reps - 1 do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    samples.(i) <- (Unix.gettimeofday () -. t0) *. 1e3
  done;
  core_median samples

(* Fixed machine-speed probe: independent of any repro code, so a code
   regression can never hide inside the normaliser. *)
let calibration_kernel () =
  let a = Array.make 4096 0.0 in
  for i = 0 to 3_999_999 do
    let j = i land 4095 in
    Array.unsafe_set a j (Array.unsafe_get a j +. (float_of_int (i land 63) *. 0.5))
  done;
  a.(0)

type core_kernel = {
  ck_name : string;
  ck_reps : int;
  ck_median_ms : float;  (* optimized implementation *)
  ck_ref_median_ms : float option;  (* Tree.Reference / Cv.Reference side, if any *)
}

let ck_speedup k ref_ms = ref_ms /. k.ck_median_ms

(* One cold Driver.run of odb_c on itanium2 at the quick geometry: the
   simulator hot path (workload fill, sink hand-off, lib/march) that
   dominates a cold analyze.  Each rep simulates a freshly built model,
   so every rep does identical work; only Driver.run is timed.  It has
   no reference twin. *)
let driver_run_median_ms ~reps =
  let cfg = Fuzzy.Analysis.quick in
  let once () =
    let model =
      (Workload.Catalog.find "odb_c").Workload.Catalog.build ~seed:cfg.Fuzzy.Analysis.seed
        ~scale:cfg.Fuzzy.Analysis.scale
    in
    let cpu = March.Cpu.create cfg.Fuzzy.Analysis.machine in
    let rng = Stats.Rng.split_label cfg.Fuzzy.Analysis.seed "odb_c" in
    let samples = cfg.Fuzzy.Analysis.intervals * cfg.Fuzzy.Analysis.samples_per_interval in
    let t0 = Unix.gettimeofday () in
    ignore
      (Sys.opaque_identity
         (Sampling.Driver.run ~period:cfg.Fuzzy.Analysis.period model ~cpu ~rng ~samples));
    (Unix.gettimeofday () -. t0) *. 1e3
  in
  ignore (once ());
  core_median (Array.init reps (fun _ -> once ()))

(* The acceptance dataset: 128 intervals x 2000 features, 60 stored
   entries per row (same shape the ablation benches use). *)
let run_core_kernels ~quick =
  let ds = synthetic_eipv_dataset ~rows:128 ~features:2000 ~nnz:60 in
  let reps_build = if quick then 9 else 15 in
  let reps_cv = if quick then 5 else 9 in
  let reps_sweep = if quick then 9 else 15 in
  let reps_driver = if quick then 5 else 9 in
  let calib_ms = time_reps 9 calibration_kernel in
  let tree_build =
    {
      ck_name = "tree_build";
      ck_reps = reps_build;
      ck_median_ms = time_reps reps_build (fun () -> Rtree.Tree.build ~max_leaves:50 ds);
      ck_ref_median_ms =
        Some (time_reps reps_build (fun () -> Rtree.Tree.Reference.build ~max_leaves:50 ds));
    }
  in
  let cv_curve =
    let rng () = Stats.Rng.create 7 in
    {
      ck_name = "cv_curve";
      ck_reps = reps_cv;
      ck_median_ms =
        time_reps reps_cv (fun () ->
            Rtree.Cv.relative_error_curve ~folds:10 ~kmax:50 (rng ()) ds);
      ck_ref_median_ms =
        Some
          (time_reps reps_cv (fun () ->
               Rtree.Cv.Reference.relative_error_curve ~folds:10 ~kmax:50 (rng ()) ds));
    }
  in
  let predict_k_sweep =
    let t = Rtree.Tree.build ~max_leaves:50 ds in
    let kmax = 50 in
    let rows = ds.Rtree.Dataset.rows in
    let sweep_all () =
      let acc = ref 0.0 in
      Array.iter
        (fun r -> Rtree.Tree.sweep_k t ~kmax r ~f:(fun _ v -> acc := !acc +. v))
        rows;
      !acc
    in
    let predict_all () =
      let acc = ref 0.0 in
      Array.iter
        (fun r ->
          for k = 1 to kmax do
            acc := !acc +. Rtree.Tree.predict_k t ~k r
          done)
        rows;
      !acc
    in
    (* Sub-millisecond per pass: batch 50 passes per rep so gettimeofday
       resolution stays negligible. *)
    let batched f () =
      for _ = 1 to 49 do
        ignore (Sys.opaque_identity (f ()))
      done;
      f ()
    in
    {
      ck_name = "predict_k_sweep";
      ck_reps = reps_sweep;
      ck_median_ms = time_reps reps_sweep (batched sweep_all);
      ck_ref_median_ms = Some (time_reps reps_sweep (batched predict_all));
    }
  in
  let driver_run =
    {
      ck_name = "driver_run";
      ck_reps = reps_driver;
      ck_median_ms = driver_run_median_ms ~reps:reps_driver;
      ck_ref_median_ms = None;
    }
  in
  (calib_ms, [ tree_build; cv_curve; predict_k_sweep; driver_run ])

let core_json (calib_ms, kernels) =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"bench\": \"core_kernels\",\n";
  Buffer.add_string b "  \"schema_version\": 2,\n";
  Buffer.add_string b
    "  \"dataset\": {\"rows\": 128, \"features\": 2000, \"nnz_per_row\": 60, \"seed\": 99},\n";
  Printf.bprintf b "  \"calibration_ms\": %.4f,\n" calib_ms;
  Buffer.add_string b "  \"kernels\": [\n";
  List.iteri
    (fun i k ->
      Printf.bprintf b "    {\"name\": %S, \"reps\": %d, \"median_ms\": %.4f" k.ck_name k.ck_reps
        k.ck_median_ms;
      Option.iter
        (fun ref_ms ->
          Printf.bprintf b ", \"ref_median_ms\": %.4f, \"speedup_vs_ref\": %.3f" ref_ms
            (ck_speedup k ref_ms))
        k.ck_ref_median_ms;
      Printf.bprintf b "}%s\n" (if i = List.length kernels - 1 then "" else ","))
    kernels;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let print_core_kernels (calib_ms, kernels) =
  print_endline "core kernels (median wall-clock, optimized vs reference):";
  Printf.printf "  calibration: %.2f ms\n" calib_ms;
  List.iter
    (fun k ->
      match k.ck_ref_median_ms with
      | Some ref_ms ->
          Printf.printf "  %-16s %10.2f ms  ref %10.2f ms  speedup %5.2fx  (%d reps)\n" k.ck_name
            k.ck_median_ms ref_ms (ck_speedup k ref_ms) k.ck_reps
      | None -> Printf.printf "  %-16s %10.2f ms  (%d reps)\n" k.ck_name k.ck_median_ms k.ck_reps)
    kernels;
  print_newline ()

(* ----------------------------- bechamel ----------------------------- *)

let quick_cfg = Fuzzy.Analysis.quick

(* Online-ingest configuration: serial pool and an unreachable warmup so
   the measured region is pure ingestion (no refit CV inside the loop —
   refit cost is measured by its own kernel). *)
let online_ingest_config =
  {
    Online.Pipeline.quick with
    Online.Pipeline.analysis = { quick_cfg with Fuzzy.Analysis.jobs = 1 };
    warmup_intervals = 1_000_000;
  }

(* Pre-computed inputs shared by the micro-benchmarks (excluded from the
   measured region). *)
let prepared =
  lazy
    (let ds = synthetic_eipv_dataset ~rows:128 ~features:2000 ~nnz:60 in
     let gzip = Fuzzy.Experiments.analyze_cached quick_cfg "gzip" in
     let q13 = Fuzzy.Experiments.analyze_cached quick_cfg "odb_h_q13" in
     (ds, gzip, q13))

let bench_tests () =
  let ds, gzip, q13 = Lazy.force prepared in
  let mk name f = Test.make ~name (Staged.stage f) in
  let experiment_kernels =
    [
      mk "table1_fig1/example_tree" (fun () -> ignore (Fuzzy.Example.tree ()));
      mk "fig2_re_curves/cv_curve" (fun () ->
          ignore
            (Rtree.Cv.relative_error_curve ~folds:5 ~kmax:10 (Stats.Rng.create 1)
               (Sampling.Eipv.dataset gzip.Fuzzy.Analysis.eipv)));
      mk "fig3_spread/render" (fun () ->
          ignore (Fuzzy.Report.spread gzip.Fuzzy.Analysis.run ~points:40));
      mk "fig4_fig5_breakdown/series" (fun () ->
          ignore (Fuzzy.Report.breakdown_series gzip.Fuzzy.Analysis.eipv ~points:16));
      mk "fig6_fig7_threads/separated_eipvs" (fun () ->
          ignore
            (Sampling.Eipv.build_thread_separated gzip.Fuzzy.Analysis.run
               ~samples_per_interval:25));
      mk "fig8_fig9_q13/tree_build" (fun () ->
          ignore
            (Rtree.Tree.build ~max_leaves:25 (Sampling.Eipv.dataset q13.Fuzzy.Analysis.eipv)));
      mk "fig10_fig11_fig12_q18/btree_probes" (fun () ->
          let db = Dbengine.Tpch.create ~scale:0.05 ~seed:1 () in
          let bt = Dbengine.Tpch.lineitem_index db in
          let rng = Stats.Rng.create 2 in
          for _ = 1 to 1_000 do
            ignore (Dbengine.Btree.find bt (Stats.Rng.int rng 1_000))
          done);
      mk "table2_fig13/classify" (fun () ->
          ignore (Fuzzy.Quadrant.classify ~cpi_variance:0.02 ~re:0.4 ()));
      mk "sec4_6_kmeans/fit" (fun () ->
          ignore
            (Kmeans.fit (Stats.Rng.create 3) ~k:8
               ~n_features:q13.Fuzzy.Analysis.eipv.Sampling.Eipv.n_features
               (Sampling.Eipv.points q13.Fuzzy.Analysis.eipv)));
      mk "sec7_sampling/phase_estimate" (fun () ->
          ignore
            (Fuzzy.Techniques.estimate Fuzzy.Techniques.Phase_based (Stats.Rng.create 4)
               q13.Fuzzy.Analysis.eipv ~budget:6));
      mk "sec7_1_robustness/quantum_simulation" (fun () ->
          let w = (Workload.Catalog.find "gzip").Workload.Catalog.build ~seed:9 ~scale:0.1 in
          let cpu = March.Cpu.create March.Config.itanium2 in
          ignore (Sampling.Driver.run w ~cpu ~rng:(Stats.Rng.create 9) ~samples:50));
    ]
  in
  let ablations =
    [
      mk "ablation_rtree_sparse/sparse_split" (fun () ->
          ignore (Rtree.Tree.build ~max_leaves:2 ds));
      mk "ablation_rtree_sparse/naive_dense_split" (fun () ->
          ignore
            (naive_best_split ds.Rtree.Dataset.rows ds.Rtree.Dataset.y
               ds.Rtree.Dataset.n_features));
      mk "ablation_cv_vs_train/cv" (fun () ->
          ignore (Rtree.Cv.relative_error_curve ~folds:5 ~kmax:8 (Stats.Rng.create 5) ds));
      mk "ablation_cv_vs_train/train" (fun () ->
          ignore (Rtree.Cv.training_error_curve ~kmax:8 ds));
    ]
  in
  let online =
    let samples = q13.Fuzzy.Analysis.run.Sampling.Driver.samples in
    let intervals = q13.Fuzzy.Analysis.eipv.Sampling.Eipv.intervals in
    let pool = Parallel.Pool.shared ~jobs:1 in
    [
      mk "online/ingest_1k_samples" (fun () ->
          let t = Online.Pipeline.create ~name:"bench" online_ingest_config in
          for i = 0 to 999 do
            ignore (Online.Pipeline.feed t samples.(i mod Array.length samples))
          done);
      mk "online/refit_48_intervals" (fun () ->
          let r =
            Online.Refit.create ~seed:1 ~folds:5 ~kmax:12 ~kopt_tol:0.005 ~min_intervals:2
              ~spacing:1 ~latency:1 ~pool
          in
          ignore
            (Online.Refit.maybe_trigger r
               ~interval:(Array.length intervals - 1)
               ~drift:true
               ~window:(fun () -> intervals));
          ignore (Online.Refit.drain r));
    ]
  in
  let substrate =
    [
      mk "substrate/cache_access_4k" (fun () ->
          let c = March.Cache.create ~size_bytes:32768 ~ways:4 ~line_bytes:64 in
          for i = 0 to 4095 do
            ignore (March.Cache.access c (i * 64))
          done);
      mk "substrate/gshare_update_4k" (fun () ->
          let b = March.Branch.create ~table_bits:14 () in
          for i = 0 to 4095 do
            ignore (March.Branch.update b ~pc:(i land 255) ~taken:(i land 3 <> 0))
          done);
      mk "substrate/sparse_dot_1k" (fun () ->
          let v = Stats.Sparse_vec.of_assoc (List.init 100 (fun i -> (i * 7, 1.5))) in
          let d = Array.make 1024 0.5 in
          for _ = 1 to 1_000 do
            ignore (Stats.Sparse_vec.dot_dense v d)
          done);
    ]
  in
  Test.make_grouped ~name:"repro"
    [
      Test.make_grouped ~name:"experiments" experiment_kernels;
      Test.make_grouped ~name:"ablations" ablations;
      Test.make_grouped ~name:"online" online;
      Test.make_grouped ~name:"substrate" substrate;
    ]

let run_benchmarks () =
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances (bench_tests ()) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some [ est ] -> est
        | Some _ | None -> Float.nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows = List.sort compare !rows in
  print_endline "Bechamel micro-benchmarks (monotonic clock, ns/run):";
  List.iter (fun (name, ns) -> Printf.printf "  %-50s %14.0f ns/run\n" name ns) rows

(* Wall-clock figures for the streaming subsystem in its natural units:
   sustained ingest rate and the latency of one drift-triggered refit. *)
let run_online_report () =
  let _, _, q13 = Lazy.force prepared in
  let samples = q13.Fuzzy.Analysis.run.Sampling.Driver.samples in
  let t = Online.Pipeline.create ~name:"bench" online_ingest_config in
  let w0 = Unix.gettimeofday () in
  let fed = ref 0 in
  while Unix.gettimeofday () -. w0 < 0.5 do
    Array.iter (fun s -> ignore (Online.Pipeline.feed t s)) samples;
    fed := !fed + Array.length samples
  done;
  let dt = Unix.gettimeofday () -. w0 in
  Printf.printf "online ingest throughput: %.0f samples/sec (%d samples in %.2fs)\n"
    (float_of_int !fed /. dt)
    !fed dt;
  let intervals = q13.Fuzzy.Analysis.eipv.Sampling.Eipv.intervals in
  let pool = Parallel.Pool.shared ~jobs:1 in
  let reps = 5 in
  let r0 = Unix.gettimeofday () in
  for i = 0 to reps - 1 do
    let r =
      Online.Refit.create ~seed:i ~folds:5 ~kmax:12 ~kopt_tol:0.005 ~min_intervals:2
        ~spacing:1 ~latency:1 ~pool
    in
    ignore
      (Online.Refit.maybe_trigger r
         ~interval:(Array.length intervals - 1)
         ~drift:true
         ~window:(fun () -> intervals));
    ignore (Online.Refit.drain r)
  done;
  Printf.printf "online refit latency: %.1f ms/refit (%d intervals, folds=5, kmax=12)\n"
    ((Unix.gettimeofday () -. r0) /. float_of_int reps *. 1000.0)
    (Array.length intervals)

(* ------------------------------ loadgen ----------------------------- *)

(* The one load generator, behind --load, --soak and the sharded-health
   kernel of --serve.  It forks [clients] processes against an already
   running server; each sends [script r] for r = 0 .. per_client - 1 over
   one connection.  [interval] > 0 paces each client on a fixed tick grid
   (a slow response eats into the following gap instead of stretching the
   run); 0 fires as fast as responses come back.  Every response is
   checked, not assumed: a typed admission refusal counts as [refused],
   any other error or a payload that differs from the first answer that
   client got to the same request counts as [mismatched].  A request with
   no answer is lost: [sent - got].  Children report through temp files;
   one that never reported lost all its requests.  Like the serve
   phase's server fork, it must run before this process spawns any
   worker domain. *)
type load = {
  sent : int;
  got : int;
  ok : int;
  refused : int;
  mismatched : int;
  latencies : float array;  (* us per answered request, sorted *)
  wall : float;  (* seconds from the first fork to the last exit *)
}

let drive ~address ~clients ~per_client ~interval ~script =
  let files =
    List.init clients (fun i -> Filename.temp_file "repro_load" (string_of_int i))
  in
  flush stdout;
  let w0 = Unix.gettimeofday () in
  let client file =
    let got = ref 0 and ok = ref 0 and refused = ref 0 and mismatched = ref 0 in
    let refs = Hashtbl.create 3 in
    let lat = Array.make per_client (-1.0) in
    (try
       Serve.Client.with_connection ~retry_for:200 address (fun conn ->
           let t0 = Unix.gettimeofday () in
           for r = 0 to per_client - 1 do
             let tick = t0 +. (float_of_int r *. interval) in
             let now = Unix.gettimeofday () in
             if tick > now then Unix.sleepf (tick -. now);
             let req = script r in
             let s = Unix.gettimeofday () in
             match Serve.Client.call_raw conn req with
             | Error _ -> ()
             | Ok payload -> (
                 incr got;
                 lat.(r) <- (Unix.gettimeofday () -. s) *. 1e6;
                 match Serve.Protocol.decode_response payload with
                 | Ok
                     (Serve.Protocol.Error
                        {
                          code =
                            ( Serve.Protocol.Rate_limited | Serve.Protocol.Too_large
                            | Serve.Protocol.Overloaded | Serve.Protocol.Timeout
                            | Serve.Protocol.Busy );
                          _;
                        }) ->
                     incr refused
                 | Ok (Serve.Protocol.Error _) | Error _ -> incr mismatched
                 | Ok _ -> (
                     match Hashtbl.find_opt refs req with
                     | None ->
                         Hashtbl.replace refs req payload;
                         incr ok
                     | Some reference ->
                         if String.equal reference payload then incr ok else incr mismatched))
           done)
     with Failure _ | Unix.Unix_error (_, _, _) | Sys_error _ -> ());
    let out = open_out file in
    Printf.fprintf out "%d %d %d %d\n" !got !ok !refused !mismatched;
    Array.iter (fun v -> if v >= 0.0 then Printf.fprintf out "%.1f\n" v) lat;
    close_out out;
    Unix._exit 0
  in
  let pids =
    List.map (fun file -> match Unix.fork () with 0 -> client file | pid -> pid) files
  in
  List.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids;
  let wall = Unix.gettimeofday () -. w0 in
  let latencies = ref [] in
  let got, ok, refused, mismatched =
    List.fold_left
      (fun ((g, o, r, m) as acc) file ->
        let ic = open_in file in
        let counts =
          match input_line ic with
          | line ->
              Scanf.sscanf line "%d %d %d %d" (fun a b c d -> (g + a, o + b, r + c, m + d))
          | exception End_of_file -> acc
        in
        (try
           while true do
             latencies := float_of_string (input_line ic) :: !latencies
           done
         with End_of_file -> ());
        close_in ic;
        Sys.remove file;
        counts)
      (0, 0, 0, 0) files
  in
  let latencies = Array.of_list !latencies in
  Array.sort compare latencies;
  { sent = clients * per_client; got; ok; refused; mismatched; latencies; wall }

(* The --load and --soak request mix. *)
let health_analyze_quadrant r =
  match r mod 3 with
  | 0 -> Serve.Protocol.Health
  | 1 -> Serve.Protocol.Analyze "gzip"
  | _ -> Serve.Protocol.Quadrant "gzip"

(* [--name VALUE] flags; errors are prefixed with [mode]. *)
let flag_value args name =
  let rec go = function
    | [] -> None
    | k :: v :: _ when String.equal k name -> Some v
    | _ :: rest -> go rest
  in
  go args

let positive_flag ~mode args name default =
  match flag_value args name with
  | None -> default
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 1 -> n
      | Some _ | None -> failwith (Printf.sprintf "%s: %s expects a positive integer" mode name))

let socket_flag ~mode args =
  match flag_value args "--socket" with
  | Some s -> Serve.Server.Unix_socket s
  | None -> failwith (mode ^ ": --socket PATH required")

(* ----------------------------- serve RPC ---------------------------- *)

(* Requests/sec and latency percentiles over a Unix socket, for a tiny
   request (health: pure framing + dispatch) vs a cached analysis
   (analyze on a warm server: framing + cache lookup + report render +
   a multi-KB response).  The server child runs a serial pool so the
   numbers isolate the RPC path, not analysis parallelism.

   NOTE: the fork below must happen before anything in this process
   spawns worker domains (fork only duplicates the calling thread, so a
   child forked after Pool.shared has live domains would inherit a
   wedged pool) — main therefore runs this phase first. *)

let percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) rank))

let fork_server ?(io_shards = 1) sock =
  match Unix.fork () with
  | 0 ->
      let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      Unix.dup2 devnull Unix.stdout;
      Unix.dup2 devnull Unix.stderr;
      let cfg =
        Serve.Server.config_of_analysis
          { Fuzzy.Analysis.quick with Fuzzy.Analysis.jobs = 1 }
      in
      let cfg = { cfg with Serve.Server.io_shards } in
      ignore (Serve.Server.run cfg (Serve.Server.Unix_socket sock));
      exit 0
  | pid -> pid

(* Sharded health throughput: [clients] forked client processes hammer a
   server child running [io_shards] IO domains, and every single response
   is verified — "zero lost responses" is checked, not assumed.  The
   shard speedup only materialises when the box has cores to spare, so
   the core count is recorded next to the numbers. *)
let sharded_health_rps ~io_shards ~clients ~per_client =
  let sock = Filename.temp_file "repro_serve_bench" ".sock" in
  Sys.remove sock;
  let pid = fork_server ~io_shards sock in
  let address = Serve.Server.Unix_socket sock in
  let finish () =
    (try Sys.remove sock with Sys_error _ -> ());
    ignore (Unix.waitpid [] pid)
  in
  let l =
    try
      (* Readiness probe, outside the timed window. *)
      Serve.Client.with_connection ~retry_for:200 address (fun conn ->
          match Serve.Client.call conn Serve.Protocol.Health with
          | Ok (Serve.Protocol.Health_ok _) -> ()
          | Ok r -> failwith (Serve.Protocol.render_response r)
          | Error m -> failwith m);
      let l =
        drive ~address ~clients ~per_client ~interval:0.0 ~script:(fun _ ->
            Serve.Protocol.Health)
      in
      Serve.Client.with_connection ~retry_for:200 address (fun conn ->
          ignore (Serve.Client.call conn Serve.Protocol.Shutdown));
      l
    with Failure m ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error (_, _, _) -> ());
      finish ();
      failwith ("sharded health: " ^ m)
  in
  finish ();
  if l.ok < l.sent then
    failwith
      (Printf.sprintf "sharded health: %d of %d responses lost, refused or mismatched"
         (l.sent - l.ok) l.sent);
  float_of_int l.sent /. l.wall

let run_serve_report () =
  let sock = Filename.temp_file "repro_serve_bench" ".sock" in
  Sys.remove sock;
  match fork_server sock with
  | pid -> (
      (* Idempotent: the failure path may run after the success path
         already reaped the serial server (the sharded phase runs its
         own servers afterwards). *)
      let finished = ref false in
      let finish () =
        if not !finished then begin
          finished := true;
          (try Sys.remove sock with Sys_error _ -> ());
          ignore (Unix.waitpid [] pid)
        end
      in
      try
        let conn = Serve.Client.connect ~retry_for:200 (Serve.Server.Unix_socket sock) in
        let call req =
          match Serve.Client.call conn req with
          | Ok resp when not (Serve.Protocol.is_error resp) -> ()
          | Ok resp -> failwith (Serve.Protocol.render_response resp)
          | Error m -> failwith m
        in
        (* Warm the server's analysis cache: the analyze kernel measures
           RPC + render on a cache hit, not the first analysis. *)
        call (Serve.Protocol.Analyze "gzip");
        let kernel name req n =
          let lat = Array.make n 0.0 in
          let w0 = Unix.gettimeofday () in
          for i = 0 to n - 1 do
            let s = Unix.gettimeofday () in
            call req;
            lat.(i) <- (Unix.gettimeofday () -. s) *. 1e6
          done;
          let dt = Unix.gettimeofday () -. w0 in
          Array.sort compare lat;
          (name, n, float_of_int n /. dt, percentile lat 50.0, percentile lat 99.0)
        in
        let rows =
          [
            kernel "health_small" Serve.Protocol.Health 2_000;
            kernel "analyze_cached" (Serve.Protocol.Analyze "gzip") 300;
          ]
        in
        call Serve.Protocol.Shutdown;
        Serve.Client.close conn;
        finish ();
        (* Shard scaling: same health request, 8 concurrent client
           processes, one server per shard count.  Each server child
           spawns its own IO domains, which is fork-safe here because
           the domains live only in the child. *)
        let clients = 8 and per_client = 1_000 in
        let sharded =
          List.map
            (fun io_shards ->
              (io_shards, sharded_health_rps ~io_shards ~clients ~per_client))
            [ 1; 4 ]
        in
        let cores = Domain.recommended_domain_count () in
        print_endline "serve RPC (unix socket, serial server):";
        List.iter
          (fun (name, n, rps, p50, p99) ->
            Printf.printf "  %-16s %9.0f req/s  p50 %8.1f us  p99 %8.1f us  (%d requests)\n"
              name rps p50 p99 n)
          rows;
        Printf.printf
          "serve health under load (%d clients x %d requests, zero lost, %d core(s)):\n"
          clients per_client cores;
        List.iter
          (fun (io_shards, rps) ->
            Printf.printf "  io_shards=%d      %9.0f req/s\n" io_shards rps)
          sharded;
        (match sharded with
        | [ (_, base); (_, wide) ] ->
            Printf.printf "  shard speedup %9.2fx\n" (wide /. base)
        | _ -> ());
        let oc = open_out "BENCH_serve.json" in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            Printf.fprintf oc
              "{\n  \"bench\": \"serve_rpc\",\n  \"transport\": \"unix_socket\",\n  \"kernels\": [\n";
            List.iteri
              (fun i (name, n, rps, p50, p99) ->
                Printf.fprintf oc
                  "    {\"name\": %S, \"requests\": %d, \"rps\": %.1f, \"p50_us\": %.1f, \"p99_us\": %.1f}%s\n"
                  name n rps p50 p99
                  (if i = 1 then "" else ","))
              rows;
            Printf.fprintf oc "  ],\n  \"cores\": %d,\n  \"sharded_health\": [\n"
              cores;
            List.iteri
              (fun i (io_shards, rps) ->
                Printf.fprintf oc
                  "    {\"io_shards\": %d, \"clients\": %d, \"requests\": %d, \"rps\": %.1f, \"lost\": 0}%s\n"
                  io_shards clients (clients * per_client) rps
                  (if i = List.length sharded - 1 then "" else ","))
              sharded;
            Printf.fprintf oc "  ]\n}\n");
        Printf.printf "[serve phase: wrote BENCH_serve.json]\n\n%!"
      with Failure m ->
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error (_, _, _) -> ());
        finish ();
        Printf.printf "serve RPC bench failed: %s\n\n%!" m)

(* ------------------------------ load/soak ---------------------------- *)

(* `bench/main.exe -- --load --socket PATH [--clients N] [--requests M]`:
   the load generator behind scripts/load_test.sh.  Each client cycles
   health/analyze/quadrant as fast as the server answers.  Prints one
   summary line and exits non-zero on any lost or mismatched response —
   refusals are fine (the script runs a phase with rate limiting on and
   expects some), silent corruption is not. *)
let run_load args =
  let address = socket_flag ~mode:"load" args in
  let clients = positive_flag ~mode:"load" args "--clients" 8 in
  let per_client = positive_flag ~mode:"load" args "--requests" 60 in
  let l = drive ~address ~clients ~per_client ~interval:0.0 ~script:health_analyze_quadrant in
  let lost = l.sent - l.got in
  Printf.printf
    "load: clients=%d requests/client=%d sent=%d got=%d ok=%d refused=%d mismatched=%d lost=%d\n%!"
    clients per_client l.sent l.got l.ok l.refused l.mismatched lost;
  if lost > 0 || l.mismatched > 0 then begin
    Printf.printf "load: FAIL\n%!";
    exit 1
  end

(* `bench/main.exe -- --soak --socket PATH [--clients N] [--rps R]
   [--duration SECONDS] [--json]`: the paced run behind
   scripts/soak_test.sh.  Same mix and checks as --load, but each client
   is paced so the offered load is a target requests/sec held for a
   target duration — a soak, not a burst.  Latencies merged across
   clients give p50/p99, and the run fails on any lost or mismatched
   response.  The JSON report carries the calibration figure and the
   core count so scripts/soak_test.sh can hold p99 to a
   machine-normalized budget from the committed BENCH_soak.json
   baseline. *)
let run_soak args =
  let address = socket_flag ~mode:"soak" args in
  let clients = positive_flag ~mode:"soak" args "--clients" 4 in
  let rps = positive_flag ~mode:"soak" args "--rps" 200 in
  let duration = positive_flag ~mode:"soak" args "--duration" 5 in
  let json = List.mem "--json" args in
  let per_client = max 1 (rps * duration / clients) in
  let interval = float_of_int duration /. float_of_int per_client in
  (* Machine-speed probe before the forks, outside the paced window. *)
  let calib_ms = time_reps 5 calibration_kernel in
  let l = drive ~address ~clients ~per_client ~interval ~script:health_analyze_quadrant in
  let p50, p99 =
    if Array.length l.latencies = 0 then (0.0, 0.0)
    else (percentile l.latencies 50.0, percentile l.latencies 99.0)
  in
  let lost = l.sent - l.got in
  let achieved = float_of_int l.got /. l.wall in
  let cores = Domain.recommended_domain_count () in
  let summary =
    Printf.sprintf
      "soak: clients=%d rps=%d duration=%ds sent=%d got=%d ok=%d refused=%d \
       mismatched=%d lost=%d p50=%.1fus p99=%.1fus achieved=%.0frps cores=%d"
      clients rps duration l.sent l.got l.ok l.refused l.mismatched lost p50 p99 achieved
      cores
  in
  if json then begin
    (* Gate mode: JSON alone on stdout, the human line on stderr. *)
    Printf.printf
      "{\n\
      \  \"bench\": \"soak\",\n\
      \  \"schema_version\": 1,\n\
      \  \"clients\": %d,\n\
      \  \"rps_target\": %d,\n\
      \  \"duration_s\": %d,\n\
      \  \"sent\": %d,\n\
      \  \"got\": %d,\n\
      \  \"ok\": %d,\n\
      \  \"refused\": %d,\n\
      \  \"mismatched\": %d,\n\
      \  \"lost\": %d,\n\
      \  \"rps_achieved\": %.1f,\n\
      \  \"p50_us\": %.1f,\n\
      \  \"p99_us\": %.1f,\n\
      \  \"calibration_ms\": %.4f,\n\
      \  \"cores\": %d\n\
       }\n"
      clients rps duration l.sent l.got l.ok l.refused l.mismatched lost achieved p50 p99
      calib_ms cores;
    Printf.eprintf "%s\n%!" summary
  end
  else print_endline summary;
  if lost > 0 || l.mismatched > 0 then begin
    Printf.eprintf "soak: FAIL (lost=%d mismatched=%d)\n%!" lost l.mismatched;
    exit 1
  end

(* -------------------------------- main ------------------------------ *)

let jobs_of_args args =
  positive_flag ~mode:"bench" args "--jobs" (Parallel.Pool.default_jobs ())

(* Atlas throughput: wall-clock for the zoo characterization sweep at
   reduced fidelity, serial vs pooled.  Deliberately not part of the
   gated core-kernel JSON (scripts/bench_gate.sh matches kernels by
   name against the committed baseline); run it explicitly with
   `bench/main.exe -- --zoo`. *)
let run_zoo_report () =
  let scenarios = Zoo.Scenarios.quick () in
  let config jobs =
    {
      Fuzzy.Analysis.quick with
      Fuzzy.Analysis.intervals = 16;
      samples_per_interval = 20;
      kmax = 8;
      scale = 0.1;
      jobs;
    }
  in
  List.iter
    (fun jobs ->
      let w0 = Unix.gettimeofday () in
      match Zoo.Atlas.rows (config jobs) scenarios with
      | Ok rows ->
          let dt = Unix.gettimeofday () -. w0 in
          Printf.printf
            "zoo atlas throughput (%d scenarios, jobs=%d): %.2fs wall, %.1f scenarios/sec\n%!"
            (List.length rows) jobs dt
            (float_of_int (List.length rows) /. dt)
      | Error e ->
          Printf.eprintf "zoo atlas benchmark failed: %s\n" e;
          exit 1)
    [ 1; 4 ]

(* Persistent-store cost in its natural units: one cold analysis (compute
   + encode + put) vs a warm disk hit (read + decode + rebuild), medians
   over several reps for the hit side.  Like --zoo, deliberately outside
   the gated core-kernel JSON; run explicitly with
   `bench/main.exe -- --store`.  Writes BENCH_store.json (gitignored). *)
let run_store_report () =
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  let dir = Filename.temp_file "repro_bench_store" "" in
  Sys.remove dir;
  let config = { Fuzzy.Analysis.quick with Fuzzy.Analysis.jobs = 1 } in
  let time_ms f =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    (Unix.gettimeofday () -. t0) *. 1e3
  in
  Fuzzy.Experiments.clear_cache ();
  Store.Result_cache.attach ~dir;
  let cold_ms = time_ms (fun () -> Fuzzy.Experiments.analyze_cached config "gzip") in
  let reps = 9 in
  let hit_samples =
    Array.init reps (fun _ ->
        Fuzzy.Experiments.clear_cache ();
        time_ms (fun () -> Fuzzy.Experiments.analyze_cached config "gzip"))
  in
  Store.Result_cache.detach ();
  Fuzzy.Experiments.clear_cache ();
  Array.sort compare hit_samples;
  let hit_ms = hit_samples.(reps / 2) in
  rm_rf dir;
  Printf.printf "store round-trip (quick gzip, serial):\n";
  Printf.printf "  store_cold  %10.2f ms  (compute + encode + put)\n" cold_ms;
  Printf.printf "  store_hit   %10.2f ms  median of %d  (read + decode + rebuild)\n" hit_ms reps;
  Printf.printf "  hit speedup %9.1fx\n" (cold_ms /. hit_ms);
  let oc = open_out "BENCH_store.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\n\
        \  \"bench\": \"store_round_trip\",\n\
        \  \"workload\": \"gzip\",\n\
        \  \"kernels\": [\n\
        \    {\"name\": \"store_cold\", \"reps\": 1, \"median_ms\": %.4f},\n\
        \    {\"name\": \"store_hit\", \"reps\": %d, \"median_ms\": %.4f}\n\
        \  ]\n\
         }\n"
        cold_ms reps hit_ms);
  Printf.printf "[store phase: wrote BENCH_store.json]\n%!"

let () =
  let args = Array.to_list Sys.argv in
  let bench_only = List.mem "--bench-only" args in
  let experiments_only = List.mem "--experiments-only" args in
  let quick = List.mem "--quick" args in
  let json = List.mem "--json" args in
  if List.mem "--load" args then run_load args
  else if List.mem "--soak" args then run_soak args
  else if List.mem "--serve" args then run_serve_report ()
  else if List.mem "--zoo" args then run_zoo_report ()
  else if List.mem "--store" args then run_store_report ()
  else if json then
    (* Gate mode: only the core kernels, JSON on stdout and nothing else
       (`bench/main.exe -- --quick --json > BENCH_core.fresh.json`). *)
    print_string (core_json (run_core_kernels ~quick))
  else begin
    let jobs = jobs_of_args args in
    (* Serve first: it forks a server child, which is only safe while no
       worker domains have been spawned in this process. *)
    if not experiments_only then run_serve_report ();
    if not bench_only then run_experiments (experiment_config ~quick ~jobs);
    if not experiments_only then begin
      let w0 = Unix.gettimeofday () in
      print_core_kernels (run_core_kernels ~quick);
      run_benchmarks ();
      run_online_report ();
      Printf.printf "[benchmark phase: %.1fs wall]\n%!" (Unix.gettimeofday () -. w0)
    end
  end
