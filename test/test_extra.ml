(* Additional edge-case and cross-module tests that do not fit the
   per-module suites: comparison module, robustness helpers, extension
   experiments, renderer corner cases. *)

module Rng = Stats.Rng
module Sv = Stats.Sparse_vec

(* ---------------------------- Rng extras --------------------------- *)

let test_rng_copy_diverges_from_original () =
  let a = Rng.create 5 in
  ignore (Rng.bits a);
  let b = Rng.copy a in
  Alcotest.(check int) "copy continues identically" (Rng.bits a) (Rng.bits b)

let test_rng_choose () =
  let rng = Rng.create 6 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "element of array" true (Array.mem (Rng.choose rng arr) arr)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choose: empty array") (fun () ->
      ignore (Rng.choose rng [||]))

let test_lognormal_positive () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "positive" true (Stats.Dist.lognormal rng ~mu:0.0 ~sigma:1.0 > 0.0)
  done

(* --------------------------- Series extras ------------------------- *)

let test_sparkline_width () =
  let xs = Array.init 200 (fun i -> float_of_int (i mod 17)) in
  let s = Stats.Series.sparkline xs ~width:10 in
  (* Each block is a 3-byte UTF-8 char. *)
  Alcotest.(check int) "10 glyphs" 30 (String.length s)

let test_sparkline_empty () =
  Alcotest.(check string) "empty input" "" (Stats.Series.sparkline [||] ~width:10)

let test_downsample_fewer_points_than_request () =
  let pts = Stats.Series.downsample [| 1.0; 2.0 |] ~points:10 in
  Alcotest.(check int) "capped at n" 2 (Array.length pts)

(* --------------------------- march extras -------------------------- *)

let test_cache_sets_ways_accessors () =
  let c = March.Cache.create ~size_bytes:16384 ~ways:8 ~line_bytes:64 in
  Alcotest.(check int) "sets" 32 (March.Cache.sets c);
  Alcotest.(check int) "ways" 8 (March.Cache.ways c);
  Alcotest.(check int) "size roundtrip" 16384 (March.Cache.size_bytes c)

let test_hierarchy_reset_stats_keeps_contents () =
  let h = March.Hierarchy.create March.Config.itanium2 in
  ignore (March.Hierarchy.access_data h 0x400);
  March.Hierarchy.reset_stats h;
  Alcotest.(check int) "mem counter reset" 0 (March.Hierarchy.mem_data_accesses h);
  (* Contents survive a stats reset. *)
  Alcotest.(check bool) "line still cached" true
    (March.Hierarchy.access_data h 0x400 = March.Hierarchy.L1)

let test_cpu_inst_weight_scales_fe () =
  let run weight =
    let cpu = March.Cpu.create March.Config.itanium2 in
    let q =
      March.Quantum.make ~instrs:1000
        ~inst_lines:(Array.init 16 (fun i -> 0x100000 * (i + 1)))
        ~inst_weight:weight ()
    in
    (March.Cpu.run cpu q).March.Cpu.breakdown.March.Breakdown.fe
  in
  Alcotest.(check (float 1e-6)) "fe scales with inst weight" (3.0 *. run 1.0) (run 3.0)

(* -------------------------- dbengine extras ------------------------ *)

let test_heap_page_of_addr () =
  let s = Dbengine.Addr_space.create () in
  let h = Dbengine.Heap.create s ~name:"t" ~rows:1000 ~row_bytes:100 in
  let a0 = Dbengine.Heap.addr_of_row h 0 in
  Alcotest.(check int) "first page" 0 (Dbengine.Heap.page_of_addr h a0);
  let a_far = Dbengine.Heap.addr_of_row h 999 in
  Alcotest.(check bool) "later page" true (Dbengine.Heap.page_of_addr h a_far > 0)

let test_seq_scan_selectivity_branches () =
  (* The predicate branch direction follows the configured selectivity. *)
  let s = Dbengine.Addr_space.create () in
  let h = Dbengine.Heap.create s ~name:"t" ~rows:2000 ~row_bytes:64 in
  let ctx = { Dbengine.Ops.rng = Rng.create 3; buf = None; yield_prob = 0.0 } in
  let op = Dbengine.Ops.seq_scan ctx ~region:1 ~heap:h ~selectivity:0.05 () in
  let sink = Dbengine.Sink.create () in
  let rec drive () =
    match op.Dbengine.Ops.step sink with
    | Dbengine.Ops.Done -> ()
    | Dbengine.Ops.More | Dbengine.Ops.Blocked -> drive ()
  in
  drive ();
  let d = Dbengine.Sink.drain sink in
  (* Two branch sites per row; predicate is the second of each pair. *)
  let pred_taken = ref 0 and preds = ref 0 in
  for i = 0 to d.Dbengine.Sink.n_branches - 1 do
    if d.Dbengine.Sink.branch_pcs.(i) land 8 = 8 then begin
      incr preds;
      if d.Dbengine.Sink.branch_taken.(i) then incr pred_taken
    end
  done;
  let rate = float_of_int !pred_taken /. float_of_int (max 1 !preds) in
  Alcotest.(check bool) (Printf.sprintf "predicate rate %.3f ~ 0.05" rate) true (rate < 0.12)

let test_btree_range_outside () =
  let t = Dbengine.Btree.create ~node_bytes:256 ~base_addr:0 () in
  Dbengine.Btree.bulk_load t (Array.init 100 (fun i -> (i, i)));
  let hits = ref 0 in
  let _ = Dbengine.Btree.range_trace t ~lo:500 ~hi:600 (fun _ _ -> incr hits) in
  Alcotest.(check int) "empty range" 0 !hits

let test_btree_empty_find () =
  let t = Dbengine.Btree.create ~node_bytes:256 ~base_addr:0 () in
  Alcotest.(check (option int)) "empty tree" None (Dbengine.Btree.find t 42);
  Dbengine.Btree.check_invariants t

(* --------------------------- fuzzy extras -------------------------- *)

let quick = Fuzzy.Analysis.quick

let test_compare_fields_sane () =
  let a = Fuzzy.Experiments.analyze_cached quick "mgrid" in
  let c = Fuzzy.Compare.run ~kmax:12 (Rng.create 3) ~name:"mgrid" a.Fuzzy.Analysis.eipv in
  Alcotest.(check string) "name" "mgrid" c.Fuzzy.Compare.name;
  Alcotest.(check bool) "tree k in range" true
    (c.Fuzzy.Compare.tree_k >= 1 && c.Fuzzy.Compare.tree_k <= 12);
  Alcotest.(check bool) "kmeans k in range" true
    (c.Fuzzy.Compare.kmeans_k >= 1 && c.Fuzzy.Compare.kmeans_k <= 12);
  Alcotest.(check bool) "improvement finite" true (Float.is_finite c.Fuzzy.Compare.improvement)

let test_mean_improvement () =
  let mk i =
    {
      Fuzzy.Compare.name = "x";
      tree_re = 0.1;
      tree_k = 2;
      kmeans_re = 0.2;
      kmeans_k = 2;
      improvement = i;
    }
  in
  Alcotest.(check (float 1e-9)) "mean" 0.5 (Fuzzy.Compare.mean_improvement [ mk 0.4; mk 0.6 ]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Fuzzy.Compare.mean_improvement [])

let test_robustness_interval_rows_shape () =
  let rows =
    Fuzzy.Robustness.interval_sizes quick ~workloads:[ "gzip" ] ~divisors:[ 1; 2 ]
  in
  Alcotest.(check int) "2 rows" 2 (List.length rows);
  List.iter
    (fun (r : Fuzzy.Robustness.interval_row) ->
      Alcotest.(check string) "name" "gzip" r.Fuzzy.Robustness.name;
      Alcotest.(check bool) "spi positive" true (r.Fuzzy.Robustness.samples_per_interval >= 2))
    rows

let test_robustness_machines_rows_shape () =
  let rows =
    Fuzzy.Robustness.machines quick ~workloads:[ "gzip" ]
      ~machines:[ March.Config.itanium2; March.Config.pentium4 ]
  in
  Alcotest.(check int) "2 rows" 2 (List.length rows);
  let machines = List.map (fun (r : Fuzzy.Robustness.machine_row) -> r.Fuzzy.Robustness.machine) rows in
  Alcotest.(check (list string)) "machine order" [ "itanium2"; "pentium4" ] machines

let test_extension_experiments_registered () =
  List.iter
    (fun id -> ignore (Fuzzy.Experiments.find id))
    [ "highrate"; "interference"; "cv-vs-train"; "thresholds"; "prefetch"; "optimizer"; "bbv"; "phase-detect" ];
  Alcotest.(check int) "26 experiments" 26 (List.length Fuzzy.Experiments.all)

let test_quadrant_descriptions_distinct () =
  let ds =
    List.map Fuzzy.Quadrant.description
      [ Fuzzy.Quadrant.Q1; Fuzzy.Quadrant.Q2; Fuzzy.Quadrant.Q3; Fuzzy.Quadrant.Q4 ]
  in
  Alcotest.(check int) "4 distinct descriptions" 4
    (List.length (List.sort_uniq compare ds))

let test_example_chamber_means_match_figure () =
  List.iter
    (fun (members, mean) ->
      match members with
      | [ 0; 1 ] -> Alcotest.(check (float 1e-9)) "EIPV0/1" 1.05 mean
      | [ 2; 6 ] -> Alcotest.(check (float 1e-9)) "EIPV2/6" 2.55 mean
      | [ 3; 7 ] -> Alcotest.(check (float 1e-9)) "EIPV3/7" 0.65 mean
      | [ 4; 5 ] -> Alcotest.(check (float 1e-9)) "EIPV4/5" 2.05 mean
      | other ->
          Alcotest.failf "unexpected chamber {%s}"
            (String.concat "," (List.map string_of_int other)))
    (Fuzzy.Example.chambers ())

(* ------------------------- sampling extras ------------------------- *)

let test_driver_period_override () =
  let w = (Workload.Catalog.find "gzip").Workload.Catalog.build ~seed:5 ~scale:0.05 in
  let cpu = March.Cpu.create March.Config.itanium2 in
  let run = Sampling.Driver.run ~period:5_000 w ~cpu ~rng:(Rng.create 5) ~samples:100 in
  Alcotest.(check int) "period stored" 5_000 run.Sampling.Driver.period;
  Array.iter
    (fun s ->
      Alcotest.(check bool) "instrs ~ period" true
        (s.Sampling.Driver.instrs >= 5_000 && s.Sampling.Driver.instrs < 40_000))
    run.Sampling.Driver.samples

let test_eipv_sparse_rows_bounded_by_spi () =
  let w = (Workload.Catalog.find "odb_c").Workload.Catalog.build ~seed:5 ~scale:0.05 in
  let cpu = March.Cpu.create March.Config.itanium2 in
  let run = Sampling.Driver.run w ~cpu ~rng:(Rng.create 5) ~samples:400 in
  let ev = Sampling.Eipv.build run ~samples_per_interval:100 in
  Array.iter
    (fun iv ->
      Alcotest.(check bool) "nnz <= samples per interval" true
        (Sv.nnz iv.Sampling.Eipv.eipv <= 100))
    ev.Sampling.Eipv.intervals

let test_required_samples_monotonic () =
  let n var = Fuzzy.Techniques.required_samples ~cpi_variance:var ~mean_cpi:2.0
      ~confidence:0.95 ~rel_error:0.05 in
  Alcotest.(check bool) "more variance needs more samples" true (n 0.5 > n 0.01);
  Alcotest.(check int) "zero variance needs one" 1 (n 0.0);
  let tight = Fuzzy.Techniques.required_samples ~cpi_variance:0.5 ~mean_cpi:2.0
      ~confidence:0.95 ~rel_error:0.01 in
  Alcotest.(check bool) "tighter error bound needs more" true (tight > n 0.5)

let test_required_samples_z_value () =
  (* cv = 1, rel_error = 1 -> n = ceil(z^2); z(95%) ~ 1.96 -> 4. *)
  let n = Fuzzy.Techniques.required_samples ~cpi_variance:4.0 ~mean_cpi:2.0
      ~confidence:0.95 ~rel_error:1.0 in
  Alcotest.(check int) "z(95%)^2 rounds to 4" 4 n

let test_required_samples_validation () =
  Alcotest.check_raises "bad confidence"
    (Invalid_argument "Techniques.required_samples: confidence out of (0,1)") (fun () ->
      ignore
        (Fuzzy.Techniques.required_samples ~cpi_variance:1.0 ~mean_cpi:1.0 ~confidence:1.5
           ~rel_error:0.1))

let test_csv_outputs () =
  let a = Fuzzy.Experiments.analyze_cached quick "gzip" in
  let re = Fuzzy.Report.re_curve_csv a.Fuzzy.Analysis.curve in
  Alcotest.(check bool) "re header" true (String.length re > 10 && String.sub re 0 4 = "k,re");
  let series = Fuzzy.Report.cpi_series_csv a.Fuzzy.Analysis.eipv in
  let lines = List.length (String.split_on_char '\n' series) in
  Alcotest.(check int) "one row per interval + header + trailing"
    (Array.length a.Fuzzy.Analysis.eipv.Sampling.Eipv.intervals + 2)
    lines;
  let path = Filename.temp_file "fuzzycsv" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Fuzzy.Report.save_csv series ~path;
      let ic = open_in path in
      let first = input_line ic in
      close_in ic;
      Alcotest.(check string) "file header" "interval,cpi,work,fe,exe,other" first)

let () =
  Alcotest.run "extra"
    [
      ( "stats",
        [
          Alcotest.test_case "rng copy" `Quick test_rng_copy_diverges_from_original;
          Alcotest.test_case "rng choose" `Quick test_rng_choose;
          Alcotest.test_case "lognormal positive" `Quick test_lognormal_positive;
          Alcotest.test_case "sparkline width" `Quick test_sparkline_width;
          Alcotest.test_case "sparkline empty" `Quick test_sparkline_empty;
          Alcotest.test_case "downsample cap" `Quick test_downsample_fewer_points_than_request;
        ] );
      ( "march",
        [
          Alcotest.test_case "cache accessors" `Quick test_cache_sets_ways_accessors;
          Alcotest.test_case "hierarchy reset keeps contents" `Quick
            test_hierarchy_reset_stats_keeps_contents;
          Alcotest.test_case "inst weight scales FE" `Quick test_cpu_inst_weight_scales_fe;
        ] );
      ( "dbengine",
        [
          Alcotest.test_case "heap page_of_addr" `Quick test_heap_page_of_addr;
          Alcotest.test_case "seq_scan selectivity" `Quick test_seq_scan_selectivity_branches;
          Alcotest.test_case "btree empty range" `Quick test_btree_range_outside;
          Alcotest.test_case "btree empty find" `Quick test_btree_empty_find;
        ] );
      ( "fuzzy",
        [
          Alcotest.test_case "compare fields" `Slow test_compare_fields_sane;
          Alcotest.test_case "mean improvement" `Quick test_mean_improvement;
          Alcotest.test_case "robustness intervals" `Slow test_robustness_interval_rows_shape;
          Alcotest.test_case "robustness machines" `Slow test_robustness_machines_rows_shape;
          Alcotest.test_case "extensions registered" `Quick test_extension_experiments_registered;
          Alcotest.test_case "quadrant descriptions" `Quick test_quadrant_descriptions_distinct;
          Alcotest.test_case "figure 1 chamber means" `Quick test_example_chamber_means_match_figure;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "period override" `Quick test_driver_period_override;
          Alcotest.test_case "eipv nnz bound" `Quick test_eipv_sparse_rows_bounded_by_spi;
        ] );
      ( "statistical_sampling",
        [
          Alcotest.test_case "required samples monotonic" `Quick test_required_samples_monotonic;
          Alcotest.test_case "z value" `Quick test_required_samples_z_value;
          Alcotest.test_case "validation" `Quick test_required_samples_validation;
          Alcotest.test_case "csv outputs" `Slow test_csv_outputs;
        ] );
    ]
