(* Tests for sparse k-means. *)

module Sv = Stats.Sparse_vec
module Rng = Stats.Rng

let sv pairs = Sv.of_assoc pairs

(* Two well-separated blobs in feature space. *)
let blobs rng n =
  Array.init n (fun i ->
      if i mod 2 = 0 then sv [ (0, 10.0 +. Rng.float rng 0.5) ]
      else sv [ (1, 10.0 +. Rng.float rng 0.5) ])

let test_two_blobs () =
  let rng = Rng.create 1 in
  let points = blobs rng 40 in
  let m = Kmeans.fit rng ~k:2 ~n_features:2 points in
  (* All even-index points share a cluster; all odd share the other. *)
  let c0 = m.Kmeans.assignment.(0) and c1 = m.Kmeans.assignment.(1) in
  Alcotest.(check bool) "distinct clusters" true (c0 <> c1);
  Array.iteri
    (fun i c -> Alcotest.(check int) "consistent" (if i mod 2 = 0 then c0 else c1) c)
    m.Kmeans.assignment

let test_inertia_decreases_with_k () =
  let rng = Rng.create 2 in
  let points =
    Array.init 60 (fun _ -> sv [ (Rng.int rng 4, 5.0 +. Rng.float rng 3.0) ])
  in
  let i1 = (Kmeans.fit (Rng.create 3) ~k:1 ~n_features:4 points).Kmeans.inertia in
  let i4 = (Kmeans.fit (Rng.create 3) ~k:4 ~n_features:4 points).Kmeans.inertia in
  Alcotest.(check bool) "inertia(k=4) <= inertia(k=1)" true (i4 <= i1 +. 1e-6)

let test_k_clamped_to_n () =
  let rng = Rng.create 4 in
  let points = blobs rng 4 in
  let m = Kmeans.fit rng ~k:50 ~n_features:2 points in
  Alcotest.(check bool) "k <= n" true (m.Kmeans.k <= 4)

let test_singleton_input () =
  let rng = Rng.create 6 in
  let m = Kmeans.fit rng ~k:3 ~n_features:1 [| sv [ (0, 1.0) ] |] in
  Alcotest.(check int) "one cluster" 1 m.Kmeans.k;
  Alcotest.(check (float 1e-9)) "zero inertia" 0.0 m.Kmeans.inertia

let test_rejects_empty () =
  let rng = Rng.create 7 in
  Alcotest.check_raises "no points" (Invalid_argument "Kmeans.fit: no points") (fun () ->
      ignore (Kmeans.fit rng ~k:2 ~n_features:1 [||]))

let test_cpi_predictability_blind () =
  (* CPI uncorrelated with the feature clusters: k-means cannot predict. *)
  let rng = Rng.create 9 in
  let points = blobs rng 40 in
  let cpi = Array.init 40 (fun i -> if i mod 4 < 2 then 1.0 else 2.0) in
  let re = Kmeans.cv_relative_error rng ~k:2 ~n_features:2 points ~cpi in
  Alcotest.(check bool) (Printf.sprintf "RE high (%.2f)" re) true (re > 0.8)

let test_cv_relative_error_predictable () =
  let rng = Rng.create 10 in
  let points = blobs rng 60 in
  let cpi = Array.init 60 (fun i -> if i mod 2 = 0 then 1.0 else 2.0) in
  let re = Kmeans.cv_relative_error (Rng.create 11) ~k:2 ~n_features:2 points ~cpi in
  Alcotest.(check bool) (Printf.sprintf "cv RE small (%.3f)" re) true (re < 0.1)

let test_best_k_cv () =
  let rng = Rng.create 12 in
  let points = blobs rng 60 in
  let cpi = Array.init 60 (fun i -> if i mod 2 = 0 then 1.0 else 2.0) in
  let k, re = Kmeans.best_k_cv ~kmax:8 (Rng.create 13) ~n_features:2 points ~cpi in
  Alcotest.(check bool) "best k >= 2" true (k >= 2);
  Alcotest.(check bool) "best RE small" true (re < 0.1)

let prop_assignment_in_range =
  QCheck2.Test.make ~name:"assignments within [0,k)" ~count:50
    QCheck2.Gen.(pair (int_range 1 6) (int_range 2 30))
    (fun (k, n) ->
      let rng = Rng.create (k + (n * 7)) in
      let points = Array.init n (fun _ -> sv [ (Rng.int rng 5, Rng.float rng 10.0) ]) in
      let m = Kmeans.fit rng ~k ~n_features:5 points in
      Array.for_all (fun c -> c >= 0 && c < m.Kmeans.k) m.Kmeans.assignment)

let prop_no_empty_cluster =
  QCheck2.Test.make ~name:"no empty clusters after fit" ~count:50
    QCheck2.Gen.(int_range 2 5)
    (fun k ->
      let rng = Rng.create (k * 31) in
      let points = Array.init 25 (fun _ -> sv [ (Rng.int rng 6, 1.0 +. Rng.float rng 4.0) ]) in
      let m = Kmeans.fit rng ~k ~n_features:6 points in
      let seen = Array.make m.Kmeans.k false in
      Array.iter (fun c -> seen.(c) <- true) m.Kmeans.assignment;
      Array.for_all (fun b -> b) seen)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "kmeans"
    [
      ( "fit",
        Alcotest.test_case "two blobs" `Quick test_two_blobs
        :: Alcotest.test_case "inertia decreases with k" `Quick test_inertia_decreases_with_k
        :: Alcotest.test_case "k clamped" `Quick test_k_clamped_to_n
        :: Alcotest.test_case "singleton" `Quick test_singleton_input
        :: Alcotest.test_case "rejects empty" `Quick test_rejects_empty
        :: qcheck [ prop_assignment_in_range; prop_no_empty_cluster ] );
      ( "predictability",
        [
          Alcotest.test_case "blind clusters -> RE high" `Quick test_cpi_predictability_blind;
          Alcotest.test_case "cv RE on predictable data" `Quick test_cv_relative_error_predictable;
          Alcotest.test_case "best_k_cv" `Quick test_best_k_cv;
        ] );
    ]
