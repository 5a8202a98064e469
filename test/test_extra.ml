(* Additional edge-case and cross-module tests that do not fit the
   per-module suites: comparison module, robustness helpers, extension
   experiments, renderer corner cases. *)

module Rng = Stats.Rng
module Sv = Stats.Sparse_vec

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
  Alcotest.(check int) "line bytes" 64 (March.Cache.line_bytes c)

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

let () =
  Alcotest.run "extra"
    [
      ( "stats",
        [
          Alcotest.test_case "sparkline width" `Quick test_sparkline_width;
          Alcotest.test_case "sparkline empty" `Quick test_sparkline_empty;
          Alcotest.test_case "downsample cap" `Quick test_downsample_fewer_points_than_request;
        ] );
      ( "march",
        [
          Alcotest.test_case "cache accessors" `Quick test_cache_sets_ways_accessors;
          Alcotest.test_case "inst weight scales FE" `Quick test_cpu_inst_weight_scales_fe;
        ] );
      ( "dbengine",
        [
          Alcotest.test_case "seq_scan selectivity" `Quick test_seq_scan_selectivity_branches;
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
    ]
