(* Unit and property tests for the stats substrate. *)

module Rng = Stats.Rng
module Dist = Stats.Dist
module Describe = Stats.Describe
module Sv = Stats.Sparse_vec

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

(* ------------------------------- Rng ------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.bits a) (Rng.bits b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits a = Rng.bits b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_in () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-3) 5 in
    Alcotest.(check bool) "in closed range" true (v >= -3 && v <= 5)
  done

let test_rng_uniformity () =
  let rng = Rng.create 99 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  (* Chi-square with 9 dof: 99.9th percentile ~ 27.9. *)
  let expected = float_of_int n /. 10.0 in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0.0 buckets
  in
  Alcotest.(check bool) (Printf.sprintf "chi2=%.1f < 27.9" chi2) true (chi2 < 27.9)

let test_rng_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 1.0 in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits a = Rng.bits b then incr matches
  done;
  Alcotest.(check bool) "split streams differ" true (!matches < 4)

let test_shuffle_permutes () =
  let rng = Rng.create 11 in
  let a = Array.init 50 (fun i -> i) in
  let b = Array.copy a in
  Rng.shuffle rng b;
  Array.sort compare b;
  Alcotest.(check (array int)) "same multiset" a b

let test_permutation () =
  let rng = Rng.create 13 in
  let p = Rng.permutation rng 100 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 (fun i -> i)) sorted

let test_bernoulli_rate () =
  let rng = Rng.create 17 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check_close 0.02 "p=0.3" 0.3 rate

(* ------------------------------- Dist ------------------------------ *)

let test_categorical_weights () =
  let rng = Rng.create 53 in
  let c = Dist.categorical [| 1.0; 0.0; 3.0 |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 40_000 do
    let k = Dist.categorical_draw c rng in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check int) "zero-weight never drawn" 0 counts.(1);
  check_close 0.05 "3:1 ratio" 0.75
    (float_of_int counts.(2) /. float_of_int (counts.(0) + counts.(2)))

let test_categorical_rejects_bad () =
  Alcotest.check_raises "empty" (Invalid_argument "Dist.categorical: empty weights")
    (fun () -> ignore (Dist.categorical [||]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Dist.categorical: negative weight") (fun () ->
      ignore (Dist.categorical [| 1.0; -1.0; 2.0 |]))

(* ----------------------------- Describe ---------------------------- *)

let test_welford_matches_naive () =
  let xs = [| 1.0; 2.5; -3.0; 4.25; 0.0; 10.0; -2.0 |] in
  let acc = Describe.Acc.create () in
  Array.iter (Describe.Acc.add acc) xs;
  let n = float_of_int (Array.length xs) in
  let mean = Array.fold_left ( +. ) 0.0 xs /. n in
  let var = Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 xs /. n in
  check_float "mean" mean (Describe.Acc.mean acc);
  check_close 1e-9 "variance" var (Describe.Acc.variance acc)

let test_acc_min_max () =
  let acc = Describe.Acc.create () in
  List.iter (Describe.Acc.add acc) [ 3.0; -1.0; 7.0 ];
  check_float "min" (-1.0) (Describe.Acc.min acc);
  check_float "max" 7.0 (Describe.Acc.max acc)

let test_variance_constant_series () =
  check_float "constant -> 0" 0.0 (Describe.variance (Array.make 50 3.14))

let test_percentile () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  check_float "p0" 1.0 (Describe.percentile xs 0.0);
  check_float "p100" 5.0 (Describe.percentile xs 100.0);
  check_float "p50" 3.0 (Describe.percentile xs 50.0);
  check_float "p25" 2.0 (Describe.percentile xs 25.0)

(* ---------------------------- Sparse_vec --------------------------- *)

let test_sv_of_assoc_dedup () =
  let v = Sv.of_assoc [ (3, 1.0); (1, 2.0); (3, 4.0); (2, 0.0) ] in
  Alcotest.(check int) "nnz" 2 (Sv.nnz v);
  check_float "sum of dup" 5.0 (Sv.get v 3);
  check_float "absent" 0.0 (Sv.get v 2)

let test_sv_get_binary_search () =
  let v = Sv.of_assoc (List.init 100 (fun i -> (i * 7, float_of_int i))) in
  for i = 0 to 99 do
    check_float "get" (float_of_int i) (Sv.get v (i * 7))
  done;
  check_float "miss" 0.0 (Sv.get v 5)

let test_sv_dot_dense () =
  let v = Sv.of_assoc [ (0, 1.0); (2, 3.0) ] in
  check_float "dot" 6.5 (Sv.dot_dense v [| 0.5; 100.0; 2.0 |])

let test_sv_sq_dist () =
  let v = Sv.of_assoc [ (0, 1.0); (1, 2.0) ] in
  let c = [| 0.0; 2.0; 3.0 |] in
  let norm = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 c in
  (* ||v-c||^2 = 1 + 0 + 9 = 10 *)
  check_close 1e-9 "sq dist" 10.0 (Sv.sq_dist_dense v c ~norm2_dense:norm)

let test_sv_rejects_negative_index () =
  Alcotest.check_raises "negative" (Invalid_argument "Sparse_vec.of_assoc: negative index")
    (fun () -> ignore (Sv.of_assoc [ (-1, 1.0) ]))

let sv_gen =
  QCheck2.Gen.(
    map
      (fun pairs -> Sv.of_assoc (List.map (fun (i, v) -> (abs i mod 64, float_of_int v)) pairs))
      (small_list (pair small_int (int_range (-5) 5))))

let prop_sv_norm2_nonneg =
  QCheck2.Test.make ~name:"sparse_vec norm2 non-negative" ~count:200 sv_gen (fun v ->
      Sv.norm2 v >= 0.0)

let prop_sv_dot_self =
  QCheck2.Test.make ~name:"sparse_vec dot with dense self = norm2" ~count:200 sv_gen (fun v ->
      let n = Sv.max_index v + 1 in
      let dense = Array.make (max 1 n) 0.0 in
      Sv.add_into_dense v dense;
      Float.abs (Sv.dot_dense v dense -. Sv.norm2 v) < 1e-6)

let prop_sv_dist_to_self_zero =
  QCheck2.Test.make ~name:"sparse_vec distance to own dense image = 0" ~count:200 sv_gen
    (fun v ->
      let n = Sv.max_index v + 1 in
      let dense = Array.make (max 1 n) 0.0 in
      Sv.add_into_dense v dense;
      let norm = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 dense in
      Sv.sq_dist_dense v dense ~norm2_dense:norm < 1e-6)

(* ------------------------------- Folds ----------------------------- *)

let test_folds_partition () =
  let rng = Rng.create 61 in
  let folds = Stats.Folds.make rng ~n:53 ~k:10 in
  Alcotest.(check int) "10 folds" 10 (Array.length folds);
  let seen = Array.make 53 0 in
  Array.iter
    (fun { Stats.Folds.train; test } ->
      Alcotest.(check int) "train+test = n" 53 (Array.length train + Array.length test);
      Array.iter (fun i -> seen.(i) <- seen.(i) + 1) test)
    folds;
  Array.iter (fun c -> Alcotest.(check int) "each index tested once" 1 c) seen

let test_folds_sizes_balanced () =
  let rng = Rng.create 67 in
  let folds = Stats.Folds.make rng ~n:25 ~k:10 in
  Array.iter
    (fun { Stats.Folds.test; _ } ->
      let l = Array.length test in
      Alcotest.(check bool) "test size 2 or 3" true (l = 2 || l = 3))
    folds

let test_folds_rejects () =
  let rng = Rng.create 71 in
  Alcotest.check_raises "k too small" (Invalid_argument "Folds.make: k must be >= 2")
    (fun () -> ignore (Stats.Folds.make rng ~n:10 ~k:1))

(* QCheck: the fold partition invariants the parallel CV relies on. *)

let folds_gen =
  (* k in [2,12], n >= k. *)
  QCheck2.Gen.(
    triple (int_range 2 12) (int_range 0 80) (int_range 0 1_000_000)
    |> map (fun (k, extra, seed) -> (k + extra, k, seed)))

let prop_folds_partition_exact =
  QCheck2.Test.make ~name:"folds partition 0..n-1 exactly (disjoint, covering)" ~count:200
    folds_gen (fun (n, k, seed) ->
      let folds = Stats.Folds.make (Rng.create seed) ~n ~k in
      let seen = Array.make n 0 in
      Array.iter (fun { Stats.Folds.test; _ } -> Array.iter (fun i -> seen.(i) <- seen.(i) + 1) test) folds;
      let complement_ok =
        Array.for_all
          (fun { Stats.Folds.train; test } ->
            (* train is exactly the complement of test. *)
            let in_test = Array.make n false in
            Array.iter (fun i -> in_test.(i) <- true) test;
            Array.length train + Array.length test = n
            && Array.for_all (fun i -> not in_test.(i)) train)
          folds
      in
      complement_ok && Array.for_all (fun c -> c = 1) seen)

let prop_folds_nonempty =
  QCheck2.Test.make ~name:"every fold non-empty for n >= k" ~count:200 folds_gen
    (fun (n, k, seed) ->
      let folds = Stats.Folds.make (Rng.create seed) ~n ~k in
      Array.length folds = k
      && Array.for_all (fun { Stats.Folds.test; _ } -> Array.length test > 0) folds)

(* ----------------------------- split_label -------------------------- *)

let stream_prefix rng len = Array.init len (fun _ -> Rng.bits rng)

let test_split_label_reproducible () =
  let a = Rng.split_label 42 "odb_c" and b = Rng.split_label 42 "odb_c" in
  Alcotest.(check bool) "same (seed, label) -> same stream" true
    (stream_prefix a 64 = stream_prefix b 64)

let test_split_label_distinct_labels () =
  let a = Rng.split_label 42 "odb_c" and b = Rng.split_label 42 "sjas" in
  Alcotest.(check bool) "distinct labels -> distinct streams" true
    (stream_prefix a 16 <> stream_prefix b 16)

let test_split_label_distinct_seeds () =
  let a = Rng.split_label 1 "gzip" and b = Rng.split_label 2 "gzip" in
  Alcotest.(check bool) "distinct seeds -> distinct streams" true
    (stream_prefix a 16 <> stream_prefix b 16)

let label_gen =
  QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 16))

let prop_split_label_streams =
  QCheck2.Test.make ~name:"split_label: reproducible per label, distinct across labels"
    ~count:200
    QCheck2.Gen.(triple (int_range 0 10_000) label_gen label_gen)
    (fun (seed, l1, l2) ->
      let s1 = stream_prefix (Rng.split_label seed l1) 8 in
      let s1' = stream_prefix (Rng.split_label seed l1) 8 in
      let s2 = stream_prefix (Rng.split_label seed l2) 8 in
      s1 = s1' && (l1 = l2 || s1 <> s2))

(* The shipped generator against the boxed-state oracle it replaced:
   from the same seed, every operation in a random sequence must give
   the same result, floats compared by their bits. *)
type rng_op =
  | Bits
  | Int of int
  | Int_in of int * int
  | Float of float
  | Bool
  | Bernoulli of float
  | Split
  | Split_label of int * string
  | Shuffle of int
  | Permutation of int

let rng_op_gen =
  QCheck2.Gen.(
    oneof
      [
        pure Bits;
        map (fun b -> Int b) (oneof [ int_range 1 100; int_range 1 max_int; pure max_int ]);
        map2 (fun lo w -> Int_in (lo, lo + w)) (int_range (-1000) 1000) (int_range 0 10_000);
        map (fun b -> Float b) (float_range (-1e6) 1e6);
        pure Bool;
        map (fun p -> Bernoulli p) (float_range (-0.1) 1.1);
        pure Split;
        map2 (fun seed l -> Split_label (seed, l)) int label_gen;
        map (fun n -> Shuffle n) (int_range 0 40);
        map (fun n -> Permutation n) (int_range 0 40);
      ])

let prop_rng_matches_oracle =
  QCheck2.Test.make ~name:"rng stream equals the boxed-state oracle" ~count:300
    QCheck2.Gen.(pair int (list_size (int_range 0 300) rng_op_gen))
    (fun (seed, ops) ->
      let s = ref (Rng.create seed) and o = ref (Oracle.Rng.create seed) in
      let bits f = Int64.bits_of_float f in
      List.for_all
        (fun op ->
          match op with
          | Bits -> Rng.bits !s = Oracle.Rng.bits !o
          | Int b -> Rng.int !s b = Oracle.Rng.int !o b
          | Int_in (lo, hi) -> Rng.int_in !s lo hi = Oracle.Rng.int_in !o lo hi
          | Float b -> bits (Rng.float !s b) = bits (Oracle.Rng.float !o b)
          | Bool -> Rng.bool !s = Oracle.Rng.bool !o
          | Bernoulli p -> Rng.bernoulli !s p = Oracle.Rng.bernoulli !o p
          | Split ->
              s := Rng.split !s;
              o := Oracle.Rng.split !o;
              true
          | Split_label (seed, l) ->
              s := Rng.split_label seed l;
              o := Oracle.Rng.split_label seed l;
              true
          | Shuffle n ->
              let a = Array.init n (fun i -> i * 3) and b = Array.init n (fun i -> i * 3) in
              Rng.shuffle !s a;
              Oracle.Rng.shuffle !o b;
              a = b
          | Permutation n -> Rng.permutation !s n = Oracle.Rng.permutation !o n)
        ops
      && Rng.bits !s = Oracle.Rng.bits !o)

(* ------------------------------- Series ---------------------------- *)

let test_downsample () =
  let xs = Array.init 100 float_of_int in
  let pts = Stats.Series.downsample xs ~points:10 in
  Alcotest.(check int) "10 buckets" 10 (Array.length pts);
  let _, first_mean = pts.(0) in
  check_float "bucket mean" 4.5 first_mean

(* ------------------------------- Table ----------------------------- *)

let test_table_render () =
  let s =
    Stats.Table.render ~header:[| "a"; "bb" |]
      ~rows:[ [| "x"; "1" |]; [| "longer"; "22" |] ]
      ()
  in
  Alcotest.(check bool) "contains header" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines + trailing" 5 (List.length lines)

let test_table_rejects_arity () =
  Alcotest.check_raises "arity" (Invalid_argument "Table.render: row arity mismatch")
    (fun () -> ignore (Stats.Table.render ~header:[| "a" |] ~rows:[ [| "x"; "y" |] ] ()))

(* ----------------------------- Checksum ---------------------------- *)

let test_adler32 () =
  (* RFC 1950 reference value. *)
  Alcotest.(check int) "adler32(Wikipedia)" 0x11E60398 (Stats.Checksum.adler32 "Wikipedia");
  Alcotest.(check int) "adler32 of empty" 1 (Stats.Checksum.adler32 "")

(* The per-byte definition: both sums reduced after every byte. *)
let adler32_bytewise s =
  let a = ref 1 and b = ref 0 in
  String.iter
    (fun c ->
      a := (!a + Char.code c) mod 65521;
      b := (!b + !a) mod 65521)
    s;
  (!b lsl 16) lor !a

(* Block sums reduce once per 5552 bytes; lengths at and past the block
   edge, and all-'\255' strings (the largest sums a block can reach). *)
let prop_adler32_blocks =
  QCheck2.Test.make ~name:"adler32 block sums = per-byte sums" ~count:200
    ~print:(fun s -> Printf.sprintf "<%d bytes>" (String.length s))
    QCheck2.Gen.(
      let* n = oneof [ int_bound 20_000; oneofl [ 5551; 5552; 5553; 11104 ] ] in
      oneof [ string_size (pure n); pure (String.make n '\255') ])
    (fun s -> Stats.Checksum.adler32 s = adler32_bytewise s)

let body = "header 1\nline two\n"
let sealed = Stats.Checksum.seal ~tag:"fuzzytest" body

let test_seal_roundtrip () =
  Alcotest.(check string) "trailer line"
    (Printf.sprintf "%sfuzzytest-end %d %d\n" body (String.length body)
       (Stats.Checksum.adler32 body))
    sealed;
  Alcotest.(check (result int string)) "unseal returns the body's length"
    (Ok (String.length body))
    (Stats.Checksum.unseal ~tag:"fuzzytest" sealed ~pos:0 ~len:(String.length sealed));
  (* In place: the blob as a range of a longer string, between bytes
     that are themselves a sealed blob. *)
  let around = sealed ^ sealed ^ sealed in
  Alcotest.(check (result int string)) "unseal a range" (Ok (String.length body))
    (Stats.Checksum.unseal ~tag:"fuzzytest" around ~pos:(String.length sealed)
       ~len:(String.length sealed))

(* Each way a sealed blob can be damaged, and the word its error must
   carry. *)
let unseal_rejections =
  let flipped =
    String.mapi (fun i c -> if i = 3 then Char.chr (Char.code c lxor 1) else c) sealed
  in
  [
    ("empty", "", "empty");
    ("no final newline", String.sub sealed 0 (String.length sealed - 1), "no final newline");
    ("no trailer", body, "missing fuzzytest-end trailer");
    ("other tag", Stats.Checksum.seal ~tag:"other" body, "missing fuzzytest-end trailer");
    ("wrong length", String.sub sealed 1 (String.length sealed - 1), "truncated: 17 body bytes");
    ("wrong checksum", flipped, "checksum mismatch");
  ]

(* Alone, and as a range between copies of a valid blob, whose bytes
   must not be read. *)
let test_unseal_rejects (_, blob, reason) () =
  List.iter
    (fun (s, pos) ->
      match Stats.Checksum.unseal ~tag:"fuzzytest" s ~pos ~len:(String.length blob) with
      | Ok _ -> Alcotest.fail "damaged blob accepted"
      | Error e ->
          let n = String.length reason in
          let rec has i = i + n <= String.length e && (String.sub e i n = reason || has (i + 1)) in
          if not (has 0) then Alcotest.failf "error %S does not name %S" e reason)
    [ (blob, 0); (sealed ^ blob ^ sealed, String.length sealed) ]

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "stats"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in;
          Alcotest.test_case "uniformity chi2" `Quick test_rng_uniformity;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
          Alcotest.test_case "permutation" `Quick test_permutation;
          Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
        ]
        @ qcheck [ prop_rng_matches_oracle ] );
      ( "dist",
        [
          Alcotest.test_case "categorical weights" `Quick test_categorical_weights;
          Alcotest.test_case "categorical rejects bad input" `Quick test_categorical_rejects_bad;
        ] );
      ( "describe",
        [
          Alcotest.test_case "welford vs naive" `Quick test_welford_matches_naive;
          Alcotest.test_case "min/max" `Quick test_acc_min_max;
          Alcotest.test_case "constant variance" `Quick test_variance_constant_series;
          Alcotest.test_case "percentile" `Quick test_percentile;
        ] );
      ( "sparse_vec",
        Alcotest.test_case "of_assoc dedups" `Quick test_sv_of_assoc_dedup
        :: Alcotest.test_case "get binary search" `Quick test_sv_get_binary_search
        :: Alcotest.test_case "dot dense" `Quick test_sv_dot_dense
        :: Alcotest.test_case "squared distance" `Quick test_sv_sq_dist
        :: Alcotest.test_case "rejects negative index" `Quick test_sv_rejects_negative_index
        :: qcheck [ prop_sv_norm2_nonneg; prop_sv_dot_self; prop_sv_dist_to_self_zero ]
      );
      ( "folds",
        Alcotest.test_case "partition covers exactly" `Quick test_folds_partition
        :: Alcotest.test_case "balanced sizes" `Quick test_folds_sizes_balanced
        :: Alcotest.test_case "rejects k<2" `Quick test_folds_rejects
        :: qcheck [ prop_folds_partition_exact; prop_folds_nonempty ] );
      ( "split_label",
        Alcotest.test_case "reproducible" `Quick test_split_label_reproducible
        :: Alcotest.test_case "distinct labels" `Quick test_split_label_distinct_labels
        :: Alcotest.test_case "distinct seeds" `Quick test_split_label_distinct_seeds
        :: qcheck [ prop_split_label_streams ] );
      ( "series",
        [
          Alcotest.test_case "downsample" `Quick test_downsample;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "rejects arity mismatch" `Quick test_table_rejects_arity;
        ] );
      ( "checksum",
        Alcotest.test_case "adler32 vector" `Quick test_adler32
        :: Alcotest.test_case "seal/unseal round trip" `Quick test_seal_roundtrip
        :: List.map
             (fun ((name, _, _) as case) ->
               Alcotest.test_case ("unseal rejects " ^ name) `Quick (test_unseal_rejects case))
             unseal_rejections
        @ qcheck [ prop_adler32_blocks ] );
    ]
