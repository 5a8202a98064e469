(* Tests for the extension modules: stream prefetcher, access-path
   optimizer, region vectors, feature importance. *)

module Prefetch = March.Prefetch
module Optimizer = Dbengine.Optimizer
module Rng = Stats.Rng

(* ------------------------------ Prefetch --------------------------- *)

let test_prefetch_detects_stream () =
  let pf = Prefetch.create ~degree:4 ~line_bytes:64 () in
  Alcotest.(check (list int)) "first miss trains only" [] (Prefetch.on_miss pf 0x1000);
  let fetches = Prefetch.on_miss pf 0x1040 in
  Alcotest.(check int) "confirmed stream issues degree" 4 (List.length fetches);
  Alcotest.(check (list int)) "next lines" [ 0x1080; 0x10C0; 0x1100; 0x1140 ] fetches;
  Alcotest.(check int) "one stream" 1 (Prefetch.confirmed_streams pf)

let test_prefetch_ignores_random () =
  let pf = Prefetch.create () in
  let rng = Rng.create 3 in
  for _ = 1 to 500 do
    ignore (Prefetch.on_miss pf (Rng.int rng (1 lsl 28)))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "few false streams (%d)" (Prefetch.confirmed_streams pf))
    true
    (Prefetch.confirmed_streams pf < 10)

let test_prefetch_tracks_multiple_streams () =
  let pf = Prefetch.create ~streams:4 () in
  (* Two interleaved ascending streams. *)
  let issued = ref 0 in
  for i = 0 to 19 do
    issued := !issued + List.length (Prefetch.on_miss pf (0x10000 + (i * 64)));
    issued := !issued + List.length (Prefetch.on_miss pf (0x90000 + (i * 64)))
  done;
  Alcotest.(check int) "both streams confirmed" 2 (Prefetch.confirmed_streams pf);
  Alcotest.(check bool) "prefetches issued" true (!issued > 50)

let test_prefetch_reset () =
  let pf = Prefetch.create () in
  ignore (Prefetch.on_miss pf 0x1000);
  ignore (Prefetch.on_miss pf 0x1040);
  Prefetch.reset pf;
  Alcotest.(check int) "stats cleared" 0 (Prefetch.confirmed_streams pf);
  Alcotest.(check (list int)) "state cleared" [] (Prefetch.on_miss pf 0x1080)

let test_prefetch_lowers_stream_cpi () =
  (* End to end: a sequential stream costs less with the prefetcher. *)
  let run cfg =
    let cpu = March.Cpu.create cfg in
    let total = ref 0.0 in
    for q = 0 to 19 do
      let addrs = Array.init 256 (fun i -> (q * 256 * 64) + (i * 64) + (1 lsl 26)) in
      let r = March.Cpu.run cpu (March.Quantum.make ~instrs:10_000 ~ref_addrs:addrs ()) in
      total := !total +. r.March.Cpu.cycles
    done;
    !total
  in
  let base = run March.Config.itanium2 in
  let pf = run (March.Config.with_prefetch March.Config.itanium2) in
  Alcotest.(check bool)
    (Printf.sprintf "prefetch cuts stream cycles (%.0f -> %.0f)" base pf)
    true
    (pf < 0.7 *. base)

let test_prefetch_does_not_help_random () =
  let run cfg =
    let cpu = March.Cpu.create cfg in
    let rng = Rng.create 5 in
    let total = ref 0.0 in
    for _ = 0 to 19 do
      let addrs = Array.init 256 (fun _ -> Rng.int rng (1 lsl 26) land lnot 63) in
      let r = March.Cpu.run cpu (March.Quantum.make ~instrs:10_000 ~ref_addrs:addrs ()) in
      total := !total +. r.March.Cpu.cycles
    done;
    !total
  in
  let base = run March.Config.itanium2 in
  let pf = run (March.Config.with_prefetch March.Config.itanium2) in
  Alcotest.(check bool)
    (Printf.sprintf "random stream unchanged (%.0f vs %.0f)" base pf)
    true
    (Float.abs (pf -. base) /. base < 0.05)

(* ------------------------------ Optimizer -------------------------- *)

let test_optimizer_extremes () =
  Alcotest.(check string) "tiny selectivity -> index" "index_scan"
    (Optimizer.to_string (Optimizer.choose ~rows:100_000 ~selectivity:0.0001 ~index_height:4 ()));
  Alcotest.(check string) "full scan at selectivity 1" "seq_scan"
    (Optimizer.to_string (Optimizer.choose ~rows:100_000 ~selectivity:1.0 ~index_height:4 ()))

let test_optimizer_crossover_consistent () =
  let rows = 360_000 and index_height = 5 in
  let x = Optimizer.crossover_selectivity ~rows ~index_height () in
  Alcotest.(check bool) "crossover in (0,1)" true (x > 0.0 && x < 1.0);
  Alcotest.(check string) "below crossover -> index" "index_scan"
    (Optimizer.to_string (Optimizer.choose ~rows ~selectivity:(x /. 2.0) ~index_height ()));
  Alcotest.(check string) "above crossover -> seq" "seq_scan"
    (Optimizer.to_string (Optimizer.choose ~rows ~selectivity:(Float.min 1.0 (x *. 2.0)) ~index_height ()))

let test_optimizer_rejects_bad_selectivity () =
  Alcotest.check_raises "bad" (Invalid_argument "Optimizer.choose: selectivity out of [0,1]")
    (fun () -> ignore (Optimizer.choose ~rows:10 ~selectivity:1.5 ~index_height:3 ()))

let test_q18_modelled_as_index_scan () =
  (* The reproduction's Q18 parameters must land on the paper's side of
     the decision. *)
  let db = Dbengine.Tpch.create ~scale:0.25 ~seed:3 () in
  let rows = (Dbengine.Tpch.lineitem db).Dbengine.Heap.rows in
  let height = Dbengine.Btree.height (Dbengine.Tpch.lineitem_index db) in
  Alcotest.(check string) "optimiser picks index for Q18" "index_scan"
    (Optimizer.to_string
       (Optimizer.choose ~rows ~selectivity:Dbengine.Tpch.q18_selectivity ~index_height:height ()))

let test_q18_variants_build () =
  let db = Dbengine.Tpch.create ~scale:0.05 ~seed:3 () in
  let sink = Dbengine.Sink.create () in
  List.iter
    (fun access ->
      let q = Dbengine.Tpch.q18_variant db ~access in
      for _ = 1 to 20 do
        ignore (Dbengine.Query.step q sink)
      done;
      Alcotest.(check bool) "produces work" true (Dbengine.Sink.total_instrs sink > 0);
      ignore (Dbengine.Sink.drain sink))
    [ Optimizer.Index_scan; Optimizer.Seq_scan ]

(* -------------------------------- Rvec ------------------------------ *)

let small_run () =
  let w = (Workload.Catalog.find "mgrid").Workload.Catalog.build ~seed:5 ~scale:0.1 in
  let cpu = March.Cpu.create March.Config.itanium2 in
  Sampling.Driver.run w ~cpu ~rng:(Rng.create 5) ~samples:600

let test_rvec_build () =
  let run = small_run () in
  let rv = Sampling.Rvec.build run ~samples_per_interval:100 in
  Alcotest.(check int) "6 intervals" 6 (Array.length rv.Sampling.Rvec.rows);
  Alcotest.(check bool) "few region features" true
    (rv.Sampling.Rvec.n_features >= 2 && rv.Sampling.Rvec.n_features < 32)

let test_rvec_matches_eipv_cpis () =
  let run = small_run () in
  let rv = Sampling.Rvec.build run ~samples_per_interval:100 in
  let ev = Sampling.Eipv.build run ~samples_per_interval:100 in
  Array.iteri
    (fun i iv ->
      Alcotest.(check (float 1e-9)) "same interval CPI" iv.Sampling.Eipv.cpi
        rv.Sampling.Rvec.cpis.(i))
    ev.Sampling.Eipv.intervals

let test_rvec_mass_is_instructions () =
  let run = small_run () in
  let rv = Sampling.Rvec.build run ~samples_per_interval:100 in
  (* Each interval's vector mass = interval instructions (in millions). *)
  Array.iteri
    (fun j row ->
      let instrs = ref 0 in
      for s = j * 100 to (j * 100) + 99 do
        instrs := !instrs + run.Sampling.Driver.samples.(s).Sampling.Driver.instrs
      done;
      Alcotest.(check (float 1e-6)) "mass" (float_of_int !instrs /. 1e6)
        (Stats.Sparse_vec.sum row))
    rv.Sampling.Rvec.rows

(* -------------------------- feature importance --------------------- *)

let test_importance_sums_to_one () =
  let rows =
    Array.init 40 (fun i ->
        Stats.Sparse_vec.of_assoc [ (0, float_of_int (i mod 4)); (1, float_of_int (i mod 8)) ])
  in
  let y = Array.init 40 (fun i -> float_of_int ((i mod 4) + (2 * (i mod 8)))) in
  let t = Rtree.Tree.build ~max_leaves:8 (Rtree.Dataset.make ~rows ~y) in
  let imp = Rtree.Tree.feature_importance t in
  let total = List.fold_left (fun a (_, g) -> a +. g) 0.0 imp in
  Alcotest.(check (float 1e-9)) "normalised" 1.0 total;
  List.iter (fun (f, _) -> Alcotest.(check bool) "known features" true (f = 0 || f = 1)) imp

let test_importance_finds_decisive_feature () =
  let rng = Rng.create 7 in
  let rows =
    Array.init 60 (fun i ->
        Stats.Sparse_vec.of_assoc
          [ (0, Rng.float rng 100.0); (1, if i mod 2 = 0 then 3.0 else 0.0) ])
  in
  let y = Array.init 60 (fun i -> if i mod 2 = 0 then 1.0 else 2.0) in
  let t = Rtree.Tree.build ~max_leaves:6 (Rtree.Dataset.make ~rows ~y) in
  match Rtree.Tree.feature_importance t with
  | (top, share) :: _ ->
      Alcotest.(check int) "decisive feature first" 1 top;
      Alcotest.(check bool) "dominant share" true (share > 0.9)
  | [] -> Alcotest.fail "no splits"

let test_importance_empty_on_leaf () =
  let rows = [| Stats.Sparse_vec.of_assoc [ (0, 1.0) ] |] in
  let t = Rtree.Tree.build ~max_leaves:4 (Rtree.Dataset.make ~rows ~y:[| 1.0 |]) in
  Alcotest.(check int) "no importance without splits" 0
    (List.length (Rtree.Tree.feature_importance t))

(* ------------------------------ Trace_io ---------------------------- *)

let test_trace_roundtrip () =
  let w = (Workload.Catalog.find "odb_c").Workload.Catalog.build ~seed:5 ~scale:0.05 in
  let cpu = March.Cpu.create March.Config.itanium2 in
  let run = Sampling.Driver.run w ~cpu ~rng:(Rng.create 5) ~samples:300 in
  let path = Filename.temp_file "fuzzytrace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Sampling.Trace_io.save run ~path;
      let back = Sampling.Trace_io.load ~path in
      Alcotest.(check string) "workload" run.Sampling.Driver.workload
        back.Sampling.Driver.workload;
      Alcotest.(check int) "samples" (Array.length run.Sampling.Driver.samples)
        (Array.length back.Sampling.Driver.samples);
      Alcotest.(check (float 0.0)) "total cycles exact" run.Sampling.Driver.total_cycles
        back.Sampling.Driver.total_cycles;
      Array.iteri
        (fun i (s : Sampling.Driver.sample) ->
          let b = back.Sampling.Driver.samples.(i) in
          Alcotest.(check int) "eip" s.Sampling.Driver.eip b.Sampling.Driver.eip;
          Alcotest.(check (float 0.0)) "cycles exact" s.Sampling.Driver.cycles
            b.Sampling.Driver.cycles;
          Alcotest.(check int) "regions" (Array.length s.Sampling.Driver.region_instrs)
            (Array.length b.Sampling.Driver.region_instrs))
        run.Sampling.Driver.samples;
      (* Re-analysis of the loaded trace gives identical intervals. *)
      let e1 = Sampling.Eipv.build run ~samples_per_interval:50 in
      let e2 = Sampling.Eipv.build back ~samples_per_interval:50 in
      Alcotest.(check (float 0.0)) "same variance" (Sampling.Eipv.cpi_variance e1)
        (Sampling.Eipv.cpi_variance e2))

let test_trace_rejects_garbage () =
  let path = Filename.temp_file "fuzzytrace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not a trace
";
      close_out oc;
      match Sampling.Trace_io.load ~path with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "expected failure")

(* One valid archive, shared by every corruption trial. *)
let trace_archive =
  lazy
    (let w =
       (Workload.Catalog.find "odb_c").Workload.Catalog.build ~seed:7 ~scale:0.05
     in
     let cpu = March.Cpu.create March.Config.itanium2 in
     let run = Sampling.Driver.run w ~cpu ~rng:(Rng.create 7) ~samples:120 in
     let path = Filename.temp_file "fuzzytrace" ".txt" in
     Fun.protect
       ~finally:(fun () -> Sys.remove path)
       (fun () ->
         Sampling.Trace_io.save run ~path;
         let ic = open_in_bin path in
         Fun.protect
           ~finally:(fun () -> close_in ic)
           (fun () -> really_input_string ic (in_channel_length ic))))

(* Any single-byte flip breaks the Adler-32 (or the trailer declaring
   it), and any truncation breaks the declared length — load must turn
   every one into a [Failure], never a bare decode exception. *)
let qcheck_trace_corruption =
  QCheck2.Test.make ~name:"trace corruption always detected" ~count:60
    QCheck2.Gen.(pair (int_range 0 1_000_000) bool)
    (fun (raw_pos, truncate) ->
      let content = Lazy.force trace_archive in
      let pos = raw_pos mod String.length content in
      let corrupted =
        if truncate then String.sub content 0 pos
        else begin
          let b = Bytes.of_string content in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
          Bytes.to_string b
        end
      in
      let path = Filename.temp_file "fuzzycorrupt" ".txt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let oc = open_out_bin path in
          output_string oc corrupted;
          close_out oc;
          match Sampling.Trace_io.load ~path with
          | exception Failure _ -> true
          | _ -> false))

(* A version-1 archive (written before the trailer existed) must still
   load: same header and sample lines, no end-of-trace trailer. *)
let test_trace_loads_v1 () =
  let content = Lazy.force trace_archive in
  let trailer_start =
    String.rindex_from content (String.length content - 2) '\n' + 1
  in
  let body = String.sub content 0 trailer_start in
  let prefix = "fuzzytrace 2" in
  assert (String.sub body 0 (String.length prefix) = prefix);
  let v1 =
    "fuzzytrace 1"
    ^ String.sub body (String.length prefix) (String.length body - String.length prefix)
  in
  let path = Filename.temp_file "fuzzyv1" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc v1;
      close_out oc;
      let back = Sampling.Trace_io.load ~path in
      Alcotest.(check int) "v1 sample count" 120
        (Array.length back.Sampling.Driver.samples);
      Alcotest.(check string) "v1 workload" "odb_c" back.Sampling.Driver.workload)

(* The archive rewritten as version 1: same header and sample lines, no
   trailer — what a pre-trailer writer would have produced. *)
let v1_archive =
  lazy
    (let content = Lazy.force trace_archive in
     let trailer_start =
       String.rindex_from content (String.length content - 2) '\n' + 1
     in
     let body = String.sub content 0 trailer_start in
     let prefix = "fuzzytrace 2" in
     assert (String.sub body 0 (String.length prefix) = prefix);
     "fuzzytrace 1"
     ^ String.sub body (String.length prefix) (String.length body - String.length prefix))

(* Exhaustive, not sampled: cut the archive at EVERY byte boundary of
   the v2 trailer region (from the start of the trailer line to the byte
   before the final newline).  Each cut either beheads the trailer
   entirely or garbles it, and the declared-length check must turn every
   one into a clean [Failure]. *)
let test_trace_trailer_truncation_every_byte () =
  let content = Lazy.force trace_archive in
  let trailer_start =
    String.rindex_from content (String.length content - 2) '\n' + 1
  in
  for cut = trailer_start to String.length content - 1 do
    match Sampling.Trace_io.of_string ~label:"trunc" (String.sub content 0 cut) with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "trailer truncation at byte %d undetected" cut
  done

(* A v1 archive has no trailer to catch truncation, so the line-count
   and per-line parses are the only defence: any proper prefix must be
   rejected with a [Failure] — never End_of_file or a bare Scanf
   exception escaping from half a header or sample line. *)
let qcheck_trace_v1_short_read =
  QCheck2.Test.make ~name:"v1 trace short reads rejected cleanly" ~count:120
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun raw ->
      let v1 = Lazy.force v1_archive in
      let cut = raw mod String.length v1 in
      match Sampling.Trace_io.of_string ~label:"v1-short" (String.sub v1 0 cut) with
      | exception Failure _ -> true
      | _ -> false)

(* Archives written before Trace_io's trailer moved to Stats.Checksum,
   pinned so a format change cannot pass unnoticed: gzip on itanium2 at
   the quick config with intervals 4, samples_per_interval 10, kmax 3,
   folds 2 and scale 0.05.  The v1 file is the same run with header
   "fuzzytrace 1" and no trailer. *)
let read_fixture name =
  let ic = open_in_bin (Filename.concat "fixtures" name) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_trace_fixtures () =
  let v2 = read_fixture "trace-v2.fuzzytrace" in
  let from_v2 = Sampling.Trace_io.of_string ~label:"v2 fixture" v2 in
  let from_v1 =
    Sampling.Trace_io.of_string ~label:"v1 fixture" (read_fixture "trace-v1.fuzzytrace")
  in
  Alcotest.(check int) "fixture sample count" 40
    (Array.length from_v2.Sampling.Driver.samples);
  Alcotest.(check string) "v2 re-encodes byte for byte" v2
    (Sampling.Trace_io.to_string from_v2);
  Alcotest.(check string) "v1 decodes to the same run" v2
    (Sampling.Trace_io.to_string from_v1)

(* ----------------------------- Phase_detect ------------------------- *)

let phase_eipv () =
  let w = (Workload.Catalog.find "mgrid").Workload.Catalog.build ~seed:5 ~scale:0.1 in
  let cpu = March.Cpu.create March.Config.itanium2 in
  let run = Sampling.Driver.run w ~cpu ~rng:(Rng.create 5) ~samples:4_000 in
  Sampling.Eipv.build run ~samples_per_interval:100

let test_detectors_length () =
  let ev = phase_eipv () in
  let m = Array.length ev.Sampling.Eipv.intervals in
  List.iter
    (fun b -> Alcotest.(check int) "m-1 boundaries" (m - 1) (Array.length b))
    [
      Fuzzy.Phase_detect.working_set_signature ev;
      Fuzzy.Phase_detect.eipv_cosine ev;
      Fuzzy.Phase_detect.cpi_delta ev;
      Fuzzy.Phase_detect.tree_chambers ev;
    ]

let test_cosine_detects_loopnest_phases () =
  let ev = phase_eipv () in
  let cos = Fuzzy.Phase_detect.eipv_cosine ev in
  let tree = Fuzzy.Phase_detect.tree_chambers ~k:4 ev in
  let n_cos = Fuzzy.Phase_detect.change_count cos in
  Alcotest.(check bool)
    (Printf.sprintf "some phase changes (%d)" n_cos)
    true
    (n_cos > 0 && n_cos < Array.length cos / 2);
  Alcotest.(check bool)
    (Printf.sprintf "agrees with tree (%.2f)" (Fuzzy.Phase_detect.agreement cos tree))
    true
    (Fuzzy.Phase_detect.agreement cos tree > 0.6)

let test_agreement_bounds () =
  let a = [| true; false; true |] and b = [| true; true; false |] in
  Alcotest.(check (float 1e-9)) "1/3" (1.0 /. 3.0) (Fuzzy.Phase_detect.agreement a b);
  Alcotest.(check (float 1e-9)) "self" 1.0 (Fuzzy.Phase_detect.agreement a a);
  Alcotest.check_raises "length" (Invalid_argument "Phase_detect.agreement: length mismatch")
    (fun () -> ignore (Fuzzy.Phase_detect.agreement a [| true |]))

let () =
  Alcotest.run "extensions"
    [
      ( "prefetch",
        [
          Alcotest.test_case "detects stream" `Quick test_prefetch_detects_stream;
          Alcotest.test_case "ignores random" `Quick test_prefetch_ignores_random;
          Alcotest.test_case "multiple streams" `Quick test_prefetch_tracks_multiple_streams;
          Alcotest.test_case "reset" `Quick test_prefetch_reset;
          Alcotest.test_case "lowers stream CPI" `Quick test_prefetch_lowers_stream_cpi;
          Alcotest.test_case "random unchanged" `Quick test_prefetch_does_not_help_random;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "extremes" `Quick test_optimizer_extremes;
          Alcotest.test_case "crossover consistent" `Quick test_optimizer_crossover_consistent;
          Alcotest.test_case "rejects bad selectivity" `Quick test_optimizer_rejects_bad_selectivity;
          Alcotest.test_case "q18 lands on index" `Quick test_q18_modelled_as_index_scan;
          Alcotest.test_case "variants build" `Quick test_q18_variants_build;
        ] );
      ( "rvec",
        [
          Alcotest.test_case "build" `Quick test_rvec_build;
          Alcotest.test_case "cpis match eipv" `Quick test_rvec_matches_eipv_cpis;
          Alcotest.test_case "mass is instructions" `Quick test_rvec_mass_is_instructions;
        ] );
      ( "importance",
        [
          Alcotest.test_case "sums to one" `Quick test_importance_sums_to_one;
          Alcotest.test_case "finds decisive feature" `Quick test_importance_finds_decisive_feature;
          Alcotest.test_case "empty on leaf" `Quick test_importance_empty_on_leaf;
        ] );
      ( "trace_io",
        [
          Alcotest.test_case "roundtrip exact" `Quick test_trace_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_trace_rejects_garbage;
          Alcotest.test_case "loads version-1 archives" `Quick test_trace_loads_v1;
          Alcotest.test_case "pinned v1/v2 fixtures" `Quick test_trace_fixtures;
          Alcotest.test_case "trailer truncation detected at every byte" `Quick
            test_trace_trailer_truncation_every_byte;
          QCheck_alcotest.to_alcotest qcheck_trace_corruption;
          QCheck_alcotest.to_alcotest qcheck_trace_v1_short_read;
        ] );
      ( "phase_detect",
        [
          Alcotest.test_case "detector lengths" `Quick test_detectors_length;
          Alcotest.test_case "cosine finds loopnest phases" `Quick
            test_cosine_detects_loopnest_phases;
          Alcotest.test_case "agreement bounds" `Quick test_agreement_bounds;
        ] );
    ]
