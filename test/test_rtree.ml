(* Tests for the CART regression tree and its cross-validation. *)

module Sv = Stats.Sparse_vec
module Dataset = Rtree.Dataset
module Tree = Rtree.Tree
module Cv = Rtree.Cv

let sv pairs = Sv.of_assoc pairs

let dense_row a = Sv.of_assoc (Array.to_list (Array.mapi (fun i x -> (i, x)) a))

let y_mean ds = Array.fold_left ( +. ) 0.0 ds.Dataset.y /. float_of_int (Dataset.n ds)

(* Small deterministic data set: y = 1 if x0 > 5 else 0. *)
let step_dataset n =
  let rows = Array.init n (fun i -> dense_row [| float_of_int (i mod 11) |]) in
  let y = Array.map (fun r -> if Sv.get r 0 > 5.0 then 1.0 else 0.0) rows in
  Dataset.make ~rows ~y

let test_dataset_basics () =
  let ds = step_dataset 22 in
  Alcotest.(check int) "n" 22 (Dataset.n ds);
  Alcotest.(check int) "n_features" 1 ds.Dataset.n_features;
  Alcotest.(check bool) "variance > 0" true (Dataset.y_variance ds > 0.0)

let test_dataset_rejects_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Dataset.make: empty data set") (fun () ->
      ignore (Dataset.make ~rows:[||] ~y:[||]))

let test_dataset_rejects_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Dataset.make: rows/y length mismatch")
    (fun () -> ignore (Dataset.make ~rows:[| Sv.empty |] ~y:[| 1.0; 2.0 |]))

let test_dataset_restrict () =
  let ds = step_dataset 22 in
  let sub = Dataset.restrict ds [| 0; 1; 2 |] in
  Alcotest.(check int) "restricted n" 3 (Dataset.n sub)

let test_tree_perfect_split () =
  let ds = step_dataset 44 in
  let t = Tree.build ~max_leaves:2 ds in
  Alcotest.(check int) "2 leaves" 2 (Tree.n_leaves t);
  (* Perfect predictions on the training data. *)
  Array.iteri
    (fun i row ->
      Alcotest.(check (float 1e-9)) "prediction" ds.Dataset.y.(i) (Tree.predict t row))
    ds.Dataset.rows

let test_tree_single_leaf_is_mean () =
  let ds = step_dataset 22 in
  let t = Tree.build ~max_leaves:1 ds in
  Alcotest.(check int) "one leaf" 1 (Tree.n_leaves t);
  Alcotest.(check (float 1e-9)) "mean" (y_mean ds) (Tree.predict t (dense_row [| 3.0 |]))

let test_tree_constant_target_no_split () =
  let rows = Array.init 10 (fun i -> dense_row [| float_of_int i |]) in
  let ds = Dataset.make ~rows ~y:(Array.make 10 2.5) in
  let t = Tree.build ~max_leaves:8 ds in
  Alcotest.(check int) "no split on constant y" 1 (Tree.n_leaves t)

let test_tree_nested_prediction () =
  (* T_k with k = n_leaves equals predict; k=1 equals global mean. *)
  let ds = step_dataset 33 in
  let t = Tree.build ~max_leaves:6 ds in
  let kmax = Tree.n_leaves t in
  Array.iter
    (fun row ->
      Tree.sweep_k t ~kmax row ~f:(fun k v ->
          if k = 1 then Alcotest.(check (float 1e-9)) "k=1" (y_mean ds) v;
          if k = kmax then Alcotest.(check (float 1e-9)) "k=full" (Tree.predict t row) v))
    ds.Dataset.rows

let test_tree_gains_non_increasing () =
  let rng = Stats.Rng.create 3 in
  let rows =
    Array.init 60 (fun _ ->
        dense_row [| Stats.Rng.float rng 10.0; Stats.Rng.float rng 10.0 |])
  in
  let y =
    Array.map (fun r -> Sv.get r 0 +. (2.0 *. Sv.get r 1) +. Stats.Rng.float rng 0.1) rows
  in
  let ds = Dataset.make ~rows ~y in
  let t = Tree.build ~max_leaves:12 ds in
  let gains = Tree.split_gains t in
  for i = 1 to Array.length gains - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "gain %d <= gain %d" i (i - 1))
      true
      (gains.(i) <= gains.(i - 1) +. 1e-9)
  done

let test_training_sse_non_increasing () =
  let ds = step_dataset 40 in
  let t = Tree.build ~max_leaves:8 ds in
  let curve = Tree.training_sse_curve t ds ~kmax:8 in
  for i = 1 to Array.length curve - 1 do
    Alcotest.(check bool) "training error non-increasing" true (curve.(i) <= curve.(i - 1) +. 1e-9)
  done

let test_tree_sparse_zero_handling () =
  (* Feature present in only some rows: absent = count 0, and the paper's
     "<= threshold goes left" applies to the implicit zeros. *)
  let rows =
    [|
      sv [ (5, 10.0) ]; sv [ (5, 12.0) ]; sv []; sv []; sv [ (5, 11.0) ]; sv [];
    |]
  in
  let y = [| 2.0; 2.1; 0.5; 0.4; 2.05; 0.45 |] in
  let ds = Dataset.make ~rows ~y in
  let t = Tree.build ~max_leaves:2 ds in
  match Tree.root t with
  | Tree.Split { feature; threshold; _ } ->
      Alcotest.(check int) "split feature" 5 feature;
      Alcotest.(check bool) "threshold separates zeros" true (threshold < 10.0);
      Alcotest.(check (float 0.01)) "zero rows mean" 0.45 (Tree.predict t (sv []))
  | Tree.Leaf _ -> Alcotest.fail "expected a split"

let test_tree_deterministic () =
  let ds = step_dataset 30 in
  let t1 = Tree.build ~max_leaves:5 ds and t2 = Tree.build ~max_leaves:5 ds in
  Array.iter
    (fun row ->
      Alcotest.(check (float 1e-12)) "same predictions" (Tree.predict t1 row) (Tree.predict t2 row))
    ds.Dataset.rows

let test_depth_positive () =
  let ds = step_dataset 30 in
  let t = Tree.build ~max_leaves:4 ds in
  Alcotest.(check bool) "depth >= 2" true (Tree.depth t >= 2)

(* ----------------------------- Figure 1 ---------------------------- *)

let test_paper_example_tree () =
  let t = Fuzzy.Example.tree () in
  (match Tree.root t with
  | Tree.Split { feature = 0; threshold = 20.0; left; right; _ } ->
      (match left with
      | Tree.Split { feature = 2; threshold = 60.0; _ } -> ()
      | _ -> Alcotest.fail "left subtree should split on (EIP2, 60)");
      (match right with
      | Tree.Split { feature = 1; threshold = 0.0; _ } -> ()
      | _ -> Alcotest.fail "right subtree should split on (EIP1, 0)")
  | _ -> Alcotest.fail "root should split on (EIP0, 20)");
  let chambers = Fuzzy.Example.chambers () in
  Alcotest.(check int) "4 chambers" 4 (List.length chambers);
  let members = List.map fst chambers in
  Alcotest.(check bool) "paper chambers" true
    (List.mem [ 0; 1 ] members && List.mem [ 2; 6 ] members && List.mem [ 4; 5 ] members
   && List.mem [ 3; 7 ] members)

(* ------------------------------- CV -------------------------------- *)

let test_cv_perfectly_predictable () =
  (* Two phases with distinct features and distinct y: RE should collapse. *)
  let rng = Stats.Rng.create 5 in
  let rows =
    Array.init 80 (fun i ->
        if i mod 2 = 0 then sv [ (0, 10.0 +. Stats.Rng.float rng 1.0) ]
        else sv [ (1, 10.0 +. Stats.Rng.float rng 1.0) ])
  in
  let y = Array.init 80 (fun i -> if i mod 2 = 0 then 1.0 else 3.0) in
  let ds = Dataset.make ~rows ~y in
  let curve = Cv.relative_error_curve ~kmax:10 (Stats.Rng.create 7) ds in
  Alcotest.(check bool)
    (Printf.sprintf "RE_final small (%.4f)" (Cv.re_final curve))
    true
    (Cv.re_final curve < 0.05)

let test_cv_unpredictable_noise () =
  (* y independent of x: RE ~ 1 (or above). *)
  let rng = Stats.Rng.create 11 in
  let rows = Array.init 100 (fun _ -> sv [ (Stats.Rng.int rng 20, 1.0 +. Stats.Rng.float rng 5.0) ]) in
  let y = Array.init 100 (fun _ -> Stats.Rng.float rng 1.0) in
  let ds = Dataset.make ~rows ~y in
  let curve = Cv.relative_error_curve ~kmax:20 (Stats.Rng.create 13) ds in
  Alcotest.(check bool)
    (Printf.sprintf "RE_min near/above 1 (%.3f)" (Cv.re_min curve))
    true
    (Cv.re_min curve > 0.7)

let test_cv_re_one_at_k1 () =
  let ds = step_dataset 50 in
  let curve = Cv.relative_error_curve ~kmax:5 (Stats.Rng.create 17) ds in
  (* k=1 predicts the training mean: held-out RE ~ 1. *)
  Alcotest.(check bool) "RE_1 ~ 1" true (Float.abs (Cv.re_at curve 1 -. 1.0) < 0.2)

let test_cv_zero_variance () =
  let rows = Array.init 20 (fun i -> sv [ (i mod 3, 1.0) ]) in
  let ds = Dataset.make ~rows ~y:(Array.make 20 1.5) in
  let curve = Cv.relative_error_curve ~kmax:5 (Stats.Rng.create 19) ds in
  Alcotest.(check (float 1e-12)) "RE 0 when Var=0" 0.0 (Cv.re_final curve)

let test_kopt_rule () =
  let curve =
    {
      Cv.k_values = [| 1; 2; 3; 4; 5 |];
      e = [| 1.0; 0.5; 0.2; 0.19; 0.19 |];
      re = [| 1.0; 0.5; 0.2; 0.19; 0.19 |];
      variance = 1.0;
    }
  in
  Alcotest.(check int) "kopt within 0.5%" 3 (Cv.kopt curve ~tol:0.02);
  Alcotest.(check int) "tight tol" 4 (Cv.kopt curve ~tol:0.005);
  Alcotest.(check int) "k at min" 4 (Cv.k_at_min curve)

let test_kopt_clamped_to_kmax () =
  (* Regression: a strictly decreasing curve that never comes within tol
     of its final value must answer kmax, never kmax+1. *)
  let re = [| 5.0; 4.0; 3.0; 2.0; 1.0 |] in
  let curve = { Cv.k_values = [| 1; 2; 3; 4; 5 |]; e = re; re; variance = 1.0 } in
  Alcotest.(check int) "negative tol clamps to kmax" 5 (Cv.kopt curve ~tol:(-1.0));
  Alcotest.(check int) "-inf tol clamps to kmax" 5 (Cv.kopt curve ~tol:neg_infinity);
  Alcotest.(check int) "strictly decreasing, tol 0" 5 (Cv.kopt curve ~tol:0.0);
  Alcotest.(check int) "loose tol picks first k within" 3 (Cv.kopt curve ~tol:2.0)

let test_training_error_curve_monotone () =
  let ds = step_dataset 60 in
  let curve = Cv.training_error_curve ~kmax:10 ds in
  for i = 1 to Array.length curve.Cv.re - 1 do
    Alcotest.(check bool) "training RE non-increasing" true
      (curve.Cv.re.(i) <= curve.Cv.re.(i - 1) +. 1e-9)
  done

(* ------------- fast-path equivalence (DESIGN.md §12) ---------------- *)

(* The optimized grower (arena + per-segment position sort) and CV sweep
   (single-descent sweep_k) must be BIT-identical to the oracle
   implementations in test/oracle — not approximately equal: equal-gain
   split selection makes even ulp differences macroscopic.  Generated
   datasets mimic EIPVs: sparse rows, small integer counts, many ties. *)

let gen_sparse_params =
  QCheck2.Gen.(
    quad (int_range 8 60) (int_range 2 40) (int_range 0 12) (int_range 0 10_000))

let make_sparse_dataset (n, features, nnz, seed) =
  let rng = Stats.Rng.create seed in
  let rows =
    Array.init n (fun _ ->
        sv
          (List.init nnz (fun _ ->
               (Stats.Rng.int rng features, float_of_int (1 + Stats.Rng.int rng 6)))))
  in
  (* Odd seeds draw y from four integers: exactly tied gains then occur
     across frontier leaves too, so the frontier's tie-break is exercised
     alongside the split search's. *)
  let y =
    Array.init n (fun _ ->
        if seed land 1 = 1 then float_of_int (Stats.Rng.int rng 4) else Stats.Rng.float rng 10.0)
  in
  Dataset.make ~rows ~y

let bits = Int64.bits_of_float

let rec same_node a b =
  match (a, b) with
  | Tree.Leaf { mean = m1; n = n1 }, Tree.Leaf { mean = m2; n = n2 } ->
      n1 = n2 && bits m1 = bits m2
  | Tree.Split s1, Tree.Split s2 ->
      s1.feature = s2.feature && s1.rank = s2.rank && s1.n = s2.n
      && bits s1.threshold = bits s2.threshold
      && bits s1.mean = bits s2.mean && same_node s1.left s2.left
      && same_node s1.right s2.right
  | _ -> false

let prop_build_equals_reference =
  QCheck2.Test.make ~name:"Tree.build node-for-node bitwise == Reference.build" ~count:200
    gen_sparse_params (fun params ->
      let ds = make_sparse_dataset params in
      same_node
        (Tree.root (Tree.build ~max_leaves:16 ds))
        (Oracle.Tree.build ~max_leaves:16 ds))

let prop_sweep_k_equals_predict_k =
  QCheck2.Test.make ~name:"sweep_k == predict_k for every k" ~count:100 gen_sparse_params
    (fun params ->
      let ds = make_sparse_dataset params in
      let t = Tree.build ~max_leaves:12 ds in
      let kmax = 15 in
      Array.for_all
        (fun row ->
          let ok = ref true in
          Tree.sweep_k t ~kmax row ~f:(fun k v ->
              if bits v <> bits (Oracle.Tree.predict_k (Tree.root t) ~k row) then ok := false);
          !ok)
        ds.Dataset.rows)

let curves_bitwise_equal a b =
  Array.for_all2 (fun x y -> bits x = bits y) a.Cv.e b.Cv.e
  && Array.for_all2 (fun x y -> bits x = bits y) a.Cv.re b.Cv.re
  && bits a.Cv.variance = bits b.Cv.variance

let prop_cv_equals_reference =
  QCheck2.Test.make ~name:"Cv.relative_error_curve bitwise == Reference" ~count:40
    gen_sparse_params (fun params ->
      let ds = make_sparse_dataset params in
      curves_bitwise_equal
        (Cv.relative_error_curve ~folds:5 ~kmax:12 (Stats.Rng.create 23) ds)
        (Oracle.Cv.relative_error_curve ~folds:5 ~kmax:12 (Stats.Rng.create 23) ds))

let prop_cv_pooled_equals_reference =
  (* The pooled fast path at 1 and 4 domains must also match the serial
     reference — the optimization must not disturb fold-order merging. *)
  QCheck2.Test.make ~name:"Cv pooled (jobs 1 and 4) bitwise == Reference" ~count:15
    gen_sparse_params (fun params ->
      let ds = make_sparse_dataset params in
      let refc = Oracle.Cv.relative_error_curve ~folds:5 ~kmax:10 (Stats.Rng.create 29) ds in
      let fast pool =
        Cv.relative_error_curve ~pool ~folds:5 ~kmax:10 (Stats.Rng.create 29) ds
      in
      curves_bitwise_equal (fast (Parallel.Pool.shared ~jobs:1)) refc
      && curves_bitwise_equal (fast (Parallel.Pool.shared ~jobs:4)) refc)

(* Regression pin: the full RE curve of a real workload (gzip at the
   quick configuration), as exact float bit patterns captured before the
   hot-path rewrite.  Any future "optimization" that perturbs the grower
   or the sweep by a single ulp breaks this test. *)
let gzip_quick_re_bits =
  [|
    0x3ff0b1f5407e4cc3L; 0x3ff0624616ff8be2L; 0x3ff088e42e180cbcL; 0x3ff09e3a81bb526cL;
    0x3ff0a8d842c0e70dL; 0x3ff0b000d322de3dL; 0x3ff0b9948df9d552L; 0x3ff0c2ace8412741L;
    0x3ff0ccb250a3d3bbL; 0x3ff0ccf9e126ac3cL; 0x3ff0d5eb1919a243L; 0x3ff0de97c9d2a502L;
    0x3ff0df2f5f311ae8L; 0x3ff0eb69d0c91459L; 0x3ff0eab07938a964L; 0x3ff0eaa75004d065L;
    0x3ff0eb01609c26dcL; 0x3ff0eade542ac281L; 0x3ff0cfe406e4d259L; 0x3ff0d0671a237925L;
    0x3ff0cf3bcfd0bcb7L; 0x3ff0cf2adc156ba3L; 0x3ff0cf084c632722L; 0x3ff0ceb35fd597fcL;
    0x3ff0ceb1f3898affL;
  |]

let test_gzip_quick_curve_pinned () =
  let a = Fuzzy.Experiments.analyze_cached Fuzzy.Analysis.quick "gzip" in
  let c = a.Fuzzy.Analysis.curve in
  Alcotest.(check int) "kmax" (Array.length gzip_quick_re_bits) (Array.length c.Cv.re);
  Alcotest.(check int64)
    "Var(CPI) bits" 0x3f9fbe4954f76a93L
    (bits c.Cv.variance);
  Array.iteri
    (fun i expected ->
      Alcotest.(check int64)
        (Printf.sprintf "RE_%d bits" (i + 1))
        expected
        (bits c.Cv.re.(i)))
    gzip_quick_re_bits

(* Regression pin: the CV curves of perfbench's trace_replay workload.
   mgrid and odb_h_q13 are simulated at the quick geometry (seed 42), and
   each run's EIPVs are cut at 50, 25 and 5 samples per interval (48, 96
   and 480 rows: the last is small counts, heavily tied) and
   cross-validated with rng seed 43.  The MD5 covers the bits of every
   e_k and RE_k and of Var(CPI).  The digests were taken before the
   grower's round-two rewrite (feature scan, heapsort copy, flat rows). *)
let curve_digest (c : Cv.curve) =
  let b = Buffer.create 512 in
  let add f = Buffer.add_int64_le b (bits f) in
  Array.iter add c.Cv.e;
  Array.iter add c.Cv.re;
  add c.Cv.variance;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_trace_replay_curves_pinned () =
  let cfg = Fuzzy.Analysis.quick in
  let spi = cfg.Fuzzy.Analysis.samples_per_interval in
  List.iter
    (fun (name, expected) ->
      let model =
        (Workload.Catalog.find name).Workload.Catalog.build ~seed:42 ~scale:cfg.Fuzzy.Analysis.scale
      in
      let run =
        Sampling.Driver.run ~period:cfg.Fuzzy.Analysis.period model
          ~cpu:(March.Cpu.create cfg.Fuzzy.Analysis.machine)
          ~rng:(Stats.Rng.split_label 42 name)
          ~samples:(cfg.Fuzzy.Analysis.intervals * spi)
      in
      List.iter2
        (fun div digest ->
          let eipv = Sampling.Eipv.build run ~samples_per_interval:(spi / div) in
          let c =
            Cv.relative_error_curve ~folds:cfg.Fuzzy.Analysis.folds ~kmax:cfg.Fuzzy.Analysis.kmax
              (Stats.Rng.create 43) (Sampling.Eipv.dataset eipv)
          in
          Alcotest.(check string) (Printf.sprintf "%s at %d samples" name (spi / div)) digest
            (curve_digest c))
        [ 1; 2; 10 ] expected)
    [
      ( "mgrid",
        [
          "7e32e59af17c6fc47edd61d2a6e95ef7";
          "f14f030b95ca2a2736c0aaceba6cad46";
          "a524a58eafe614455108ad1bf5589d4e";
        ] );
      ( "odb_h_q13",
        [
          "580068abbf99ed6da2c175fe84bef77c";
          "7eb7dc038833d82ed97d0b37c45f83cf";
          "3437cd0b3e3fee5e796670d591e54996";
        ] );
    ]

let prop_predict_k_between =
  (* For any k, T_k predicts the mean of SOME ancestor node: it lies
     within [min y, max y] of the training data. *)
  QCheck2.Test.make ~name:"predict_k bounded by target range" ~count:50
    QCheck2.Gen.(int_range 1 8)
    (fun kmax ->
      let ds = step_dataset 40 in
      let t = Tree.build ~max_leaves:8 ds in
      Array.for_all
        (fun row ->
          let ok = ref true in
          Tree.sweep_k t ~kmax row ~f:(fun _ p -> if p < -1e-9 || p > 1.0 +. 1e-9 then ok := false);
          !ok)
        ds.Dataset.rows)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "rtree"
    [
      ( "dataset",
        [
          Alcotest.test_case "basics" `Quick test_dataset_basics;
          Alcotest.test_case "rejects empty" `Quick test_dataset_rejects_empty;
          Alcotest.test_case "rejects mismatch" `Quick test_dataset_rejects_mismatch;
          Alcotest.test_case "restrict" `Quick test_dataset_restrict;
        ] );
      ( "tree",
        Alcotest.test_case "perfect split" `Quick test_tree_perfect_split
        :: Alcotest.test_case "single leaf is mean" `Quick test_tree_single_leaf_is_mean
        :: Alcotest.test_case "constant target" `Quick test_tree_constant_target_no_split
        :: Alcotest.test_case "nested prediction" `Quick test_tree_nested_prediction
        :: Alcotest.test_case "gains non-increasing" `Quick test_tree_gains_non_increasing
        :: Alcotest.test_case "training sse non-increasing" `Quick test_training_sse_non_increasing
        :: Alcotest.test_case "sparse zero handling" `Quick test_tree_sparse_zero_handling
        :: Alcotest.test_case "deterministic" `Quick test_tree_deterministic
        :: Alcotest.test_case "depth" `Quick test_depth_positive
        :: qcheck [ prop_predict_k_between ] );
      ( "fast_path_equivalence",
        Alcotest.test_case "gzip quick RE curve pinned (bitwise)" `Quick
          test_gzip_quick_curve_pinned
        :: qcheck
             [
               prop_build_equals_reference;
               prop_sweep_k_equals_predict_k;
               prop_cv_equals_reference;
               prop_cv_pooled_equals_reference;
             ]
        @ [
            Alcotest.test_case "trace_replay curves pinned (MD5)" `Quick
              test_trace_replay_curves_pinned;
          ] );
      ("paper_example", [ Alcotest.test_case "figure 1 tree" `Quick test_paper_example_tree ]);
      ( "cv",
        [
          Alcotest.test_case "predictable -> RE ~ 0" `Quick test_cv_perfectly_predictable;
          Alcotest.test_case "noise -> RE ~ 1" `Quick test_cv_unpredictable_noise;
          Alcotest.test_case "RE_1 ~ 1" `Quick test_cv_re_one_at_k1;
          Alcotest.test_case "zero variance" `Quick test_cv_zero_variance;
          Alcotest.test_case "kopt rule" `Quick test_kopt_rule;
          Alcotest.test_case "kopt clamped to kmax" `Quick test_kopt_clamped_to_kmax;
          Alcotest.test_case "training curve monotone" `Quick test_training_error_curve_monotone;
        ] );
    ]
