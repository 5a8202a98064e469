(* Tests for the sampling driver and EIPV construction. *)

module Driver = Sampling.Driver
module Eipv = Sampling.Eipv
module Catalog = Workload.Catalog
module Rng = Stats.Rng

let small_run ?(name = "gzip") ?(samples = 600) () =
  let w = (Catalog.find name).Catalog.build ~seed:5 ~scale:0.05 in
  let cpu = March.Cpu.create March.Config.itanium2 in
  Driver.run w ~cpu ~rng:(Rng.create 5) ~samples

let test_driver_sample_count () =
  let run = small_run () in
  Alcotest.(check int) "samples" 600 (Array.length run.Driver.samples);
  Alcotest.(check int) "period default" 20_000 run.Driver.period

let test_driver_samples_have_positive_cost () =
  let run = small_run () in
  Array.iter
    (fun s ->
      Alcotest.(check bool) "instrs > 0" true (s.Driver.instrs > 0);
      Alcotest.(check bool) "cycles > 0" true (s.Driver.cycles > 0.0);
      Alcotest.(check bool) "cpi sane" true
        (s.Driver.cycles /. float_of_int s.Driver.instrs < 100.0))
    run.Driver.samples

let test_driver_totals_consistent () =
  let run = small_run () in
  let instrs = Array.fold_left (fun a s -> a + s.Driver.instrs) 0 run.Driver.samples in
  let cycles = Array.fold_left (fun a s -> a +. s.Driver.cycles) 0.0 run.Driver.samples in
  Alcotest.(check int) "instr total" run.Driver.total_instrs instrs;
  Alcotest.(check (float 1e-6)) "cycle total" run.Driver.total_cycles cycles;
  Alcotest.(check (float 1e-9)) "cpi" (cycles /. float_of_int instrs) (Driver.cpi run)

let test_driver_deterministic () =
  let a = small_run () and b = small_run () in
  Alcotest.(check (float 1e-12)) "same cpi" (Driver.cpi a) (Driver.cpi b);
  Array.iteri
    (fun i s -> Alcotest.(check int) "same eips" s.Driver.eip b.Driver.samples.(i).Driver.eip)
    a.Driver.samples

let test_driver_multithread_switches () =
  let run = small_run ~name:"odb_c" ~samples:800 () in
  Alcotest.(check bool) "context switches happen" true (run.Driver.context_switches > 10);
  let tids = Hashtbl.create 8 in
  Array.iter (fun s -> Hashtbl.replace tids s.Driver.tid ()) run.Driver.samples;
  Alcotest.(check bool) "multiple threads sampled" true (Hashtbl.length tids > 1);
  Alcotest.(check bool) "os time accounted" true (Driver.os_fraction run > 0.01)

let test_driver_spec_vs_server_switch_rates () =
  let spec = small_run ~name:"gzip" ~samples:600 () in
  let server = small_run ~name:"odb_c" ~samples:600 () in
  Alcotest.(check bool) "server switches much more" true
    (Driver.context_switches_per_minstr server
    > 10.0 *. Driver.context_switches_per_minstr spec)

let test_driver_validation () =
  let w = (Catalog.find "gzip").Catalog.build ~seed:5 ~scale:0.05 in
  let cpu = March.Cpu.create March.Config.itanium2 in
  Alcotest.check_raises "samples" (Invalid_argument "Driver.run: samples must be positive")
    (fun () -> ignore (Driver.run w ~cpu ~rng:(Rng.create 1) ~samples:0))

(* MD5 over every sample's eip, tid, instrs, os_instrs and the IEEE bits
   of its cycles and breakdown, for 400 samples of a quick-geometry run
   (seed 42, scale 0.25).  These pairs reach simulator paths no golden
   transcript covers: xeon, the stream prefetcher (pentium4+pf), and the
   B-tree-heavy server and DSS models at reduced length.  The expected
   digests were taken before the allocation-free rewrite of the cache,
   TLB, CPU loop, sink hand-off and B-tree descent, and must never be
   regenerated to make a simulator change pass. *)
let sample_digest ?(samples = 400) ?(regions = false) ~name ~machine () =
  let w = (Catalog.find name).Catalog.build ~seed:42 ~scale:0.25 in
  let run =
    Driver.run w ~cpu:(March.Cpu.create machine) ~rng:(Rng.split_label 42 name) ~samples
  in
  let b = Buffer.create (samples * 72) in
  let add_int i = Buffer.add_int64_le b (Int64.of_int i) in
  let add_float f = Buffer.add_int64_le b (Int64.bits_of_float f) in
  Array.iter
    (fun (s : Driver.sample) ->
      add_int s.eip;
      add_int s.tid;
      add_int s.instrs;
      add_int s.os_instrs;
      add_float s.cycles;
      let bd = s.breakdown in
      add_float bd.March.Breakdown.work;
      add_float bd.fe;
      add_float bd.exe;
      add_float bd.other;
      if regions then begin
        add_int (Array.length s.region_instrs);
        Array.iter
          (fun (r, n) ->
            add_int r;
            add_int n)
          s.region_instrs
      end)
    run.Driver.samples;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_driver_pinned_digests () =
  let cfg = function
    | "pentium4+pf" -> March.Config.(with_prefetch pentium4)
    | name -> March.Config.by_name name
  in
  List.iter
    (fun (name, machine, expected) ->
      Alcotest.(check string) (name ^ " on " ^ machine) expected
        (sample_digest ~name ~machine:(cfg machine) ()))
    [
      ("odb_c", "itanium2", "98ba8fe482626e3de1aadbabae627bab");
      ("odb_h_q18", "itanium2", "ce10ffce32effe29ca1eb870fcf85ca1");
      ("mcf", "xeon", "2461333afb3ee3c160a10001b6327a21");
      ("swim", "pentium4+pf", "c3219ec712051e524034230b5758f4c1");
      ("sjas", "itanium2", "9938f786da52a2fbd88a0b64ba56d8a7");
    ]

(* The six driver runs of a quick cold analyze (48 intervals of 50
   samples), digested as above plus every sample's [region_instrs]: the
   sink's region counts, odb_h_q13's sequential scan and the synthetic
   SPEC fill (mgrid, gzip) that the five pins above do not reach.  Taken
   before the per-event rewrite of the RNG, B-tree, sink and cache walk;
   never regenerate them to make a simulator change pass. *)
let test_driver_pinned_cold_analyze_digests () =
  List.iter
    (fun (name, machine, expected) ->
      Alcotest.(check string) (name ^ " on " ^ machine) expected
        (sample_digest ~samples:2400 ~regions:true ~name ~machine:(March.Config.by_name machine)
           ()))
    [
      ("odb_c", "itanium2", "47fa66200bf9a3793b6bc662a4056e2c");
      ("mgrid", "itanium2", "e244af91c6ae406fb8205be34be12829");
      ("odb_h_q18", "itanium2", "ffb68db5ebb18ae6878211a96ab86212");
      ("odb_h_q13", "itanium2", "945b26a4233cabfa7d4436b6fa60c8ce");
      ("gzip", "itanium2", "2e3149d697fa4ad598e18a9aa9bf0197");
      ("gzip", "pentium4", "0bd6a5b785789b7bd59025935a5b16a3");
    ]

(* -------------------------------- Eipv ----------------------------- *)

let test_eipv_interval_count () =
  let run = small_run ~samples:650 () in
  let ev = Eipv.build run ~samples_per_interval:100 in
  Alcotest.(check int) "6 full intervals" 6 (Array.length ev.Eipv.intervals)

let test_eipv_counts_sum_to_spi () =
  let run = small_run () in
  let ev = Eipv.build run ~samples_per_interval:50 in
  Array.iter
    (fun iv ->
      Alcotest.(check (float 1e-9)) "histogram mass = samples" 50.0
        (Stats.Sparse_vec.sum iv.Eipv.eipv))
    ev.Eipv.intervals

let test_eipv_cpi_matches_samples () =
  let run = small_run () in
  let ev = Eipv.build run ~samples_per_interval:100 in
  let iv = ev.Eipv.intervals.(0) in
  let cycles = ref 0.0 and instrs = ref 0 in
  for i = 0 to 99 do
    cycles := !cycles +. run.Driver.samples.(i).Driver.cycles;
    instrs := !instrs + run.Driver.samples.(i).Driver.instrs
  done;
  Alcotest.(check (float 1e-9)) "instantaneous CPI" (!cycles /. float_of_int !instrs) iv.Eipv.cpi

let test_eipv_features_cover_eips () =
  let run = small_run () in
  let ev = Eipv.build run ~samples_per_interval:100 in
  Alcotest.(check int) "feature count" ev.Eipv.n_features (Array.length ev.Eipv.eip_of_feature);
  (* Every feature id used in vectors is within range. *)
  Array.iter
    (fun iv ->
      Stats.Sparse_vec.iter
        (fun f _ -> Alcotest.(check bool) "feature in range" true (f < ev.Eipv.n_features))
        iv.Eipv.eipv)
    ev.Eipv.intervals

let test_eipv_dataset_roundtrip () =
  let run = small_run () in
  let ev = Eipv.build run ~samples_per_interval:100 in
  let ds = Eipv.dataset ev in
  Alcotest.(check int) "dataset rows" (Array.length ev.Eipv.intervals) (Rtree.Dataset.n ds);
  Alcotest.(check (float 1e-12)) "variance consistent" (Eipv.cpi_variance ev)
    (Rtree.Dataset.y_variance ds)

let test_eipv_rejects_too_few () =
  let run = small_run ~samples:30 () in
  Alcotest.check_raises "not enough"
    (Invalid_argument "Eipv.build: not enough samples for one interval") (fun () ->
      ignore (Eipv.build run ~samples_per_interval:100))

let test_eipv_thread_separated_pool () =
  let run = small_run ~name:"odb_c" ~samples:1200 () in
  let pooled = Eipv.build_thread_separated run ~samples_per_interval:20 in
  (* Each thread contributes its own whole intervals. *)
  let per_tid = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      let tid = s.Sampling.Driver.tid in
      Hashtbl.replace per_tid tid (1 + Option.value ~default:0 (Hashtbl.find_opt per_tid tid)))
    run.Sampling.Driver.samples;
  let total =
    List.fold_left (fun a (_, n) -> a + (n / 20)) 0 (Stats.Det.hashtbl_bindings per_tid)
  in
  Alcotest.(check bool) "several threads" true (Hashtbl.length per_tid > 1);
  Alcotest.(check int) "pooled = sum of per-thread" total (Array.length pooled.Eipv.intervals)

let test_breakdown_components_positive () =
  let run = small_run () in
  let ev = Eipv.build run ~samples_per_interval:100 in
  Array.iter
    (fun iv ->
      let b = iv.Eipv.breakdown in
      Alcotest.(check bool) "work > 0" true (b.March.Breakdown.work > 0.0);
      Alcotest.(check bool) "components non-negative" true
        (b.March.Breakdown.fe >= 0.0 && b.March.Breakdown.exe >= 0.0
       && b.March.Breakdown.other >= 0.0);
      Alcotest.(check (float 1e-6)) "breakdown sums to CPI" iv.Eipv.cpi
        (March.Breakdown.total b))
    ev.Eipv.intervals

(* The builder against its parent kept in test/oracle: random streams
   over few or many distinct EIPs (any int, negative ones included, up
   to about a thousand distinct),
   samples_per_interval 1-64 and usually a partial last interval.  Every
   feed must seal the same interval or none, compared by its marshalled
   bytes (floats by their bits), with the same counts after it; the
   batch constructors over the same samples must agree too. *)
let prop_builder_matches_oracle =
  let open QCheck2.Gen in
  let float =
    oneof
      [
        oneofl [ 0.0; -0.0; infinity; neg_infinity; nan; Float.min_float; 1e300 ];
        map Int64.float_of_bits int64;
        float_range 0.0 1e6;
      ]
  in
  let gen =
    let* spi = int_range 1 64 in
    let* eips =
      no_shrink
        (oneof
           [
             map Array.of_list (list_size (int_range 1 4) int);
             map Array.of_list (list_size (int_range 5 3000) int);
           ])
    in
    let sample =
      let* eip = map (fun i -> eips.(i)) (int_bound (Array.length eips - 1)) in
      let* tid = int_bound 3 and* instrs = oneof [ int_bound 100_000; int ] in
      let* cycles = float and* work = float and* fe = float and* exe = float and* other = float in
      return
        {
          Driver.eip;
          tid;
          instrs;
          cycles;
          breakdown = { March.Breakdown.work; fe; exe; other };
          os_instrs = 0;
          region_instrs = [||];
        }
    in
    (* Past 512 distinct EIPs the interner's table grows.  A failure
       shrinks spi and the stream's length only: removing samples or
       EIPs one by one from thousands takes hours. *)
    let* n = int_bound 1500 in
    let* samples = array_repeat n (no_shrink sample) in
    return (spi, samples)
  in
  let bytes v = Marshal.to_string v [ Marshal.No_sharing ] in
  let batch f samples spi =
    let run =
      {
        Driver.workload = "w";
        machine = "m";
        samples;
        period = 1;
        context_switches = 0;
        io_blocks = 0;
        os_instr_total = 0;
        total_instrs = 0;
        total_cycles = 0.0;
      }
    in
    match f run ~samples_per_interval:spi with
    | t -> Some (bytes (t : Eipv.t))
    | exception Invalid_argument _ -> None
  in
  QCheck2.Test.make ~name:"builder = Oracle.Eipv.Builder, bit for bit" ~count:300
    ~print:(fun (spi, samples) -> Printf.sprintf "spi %d, %d samples" spi (Array.length samples))
    gen
    (fun (spi, samples) ->
      let b = Eipv.Builder.create ~samples_per_interval:spi in
      let o = Oracle.Eipv.Builder.create ~samples_per_interval:spi in
      Array.for_all
        (fun s ->
          bytes (Eipv.Builder.feed b s) = bytes (Oracle.Eipv.Builder.feed o s)
          && Eipv.Builder.sealed b = Oracle.Eipv.Builder.sealed o
          && Eipv.Builder.pending_samples b = Oracle.Eipv.Builder.pending_samples o
          && Eipv.Builder.n_features b = Oracle.Eipv.Builder.n_features o)
        samples
      && batch Eipv.build samples spi = batch Oracle.Eipv.build samples spi
      && batch Eipv.build_thread_separated samples spi
         = batch Oracle.Eipv.build_thread_separated samples spi)

let () =
  Alcotest.run "sampling"
    [
      ( "driver",
        [
          Alcotest.test_case "sample count" `Quick test_driver_sample_count;
          Alcotest.test_case "positive costs" `Quick test_driver_samples_have_positive_cost;
          Alcotest.test_case "totals consistent" `Quick test_driver_totals_consistent;
          Alcotest.test_case "deterministic" `Quick test_driver_deterministic;
          Alcotest.test_case "multithread switches" `Quick test_driver_multithread_switches;
          Alcotest.test_case "spec vs server switch rate" `Quick
            test_driver_spec_vs_server_switch_rates;
          Alcotest.test_case "validation" `Quick test_driver_validation;
          Alcotest.test_case "pinned sample digests" `Quick test_driver_pinned_digests;
          Alcotest.test_case "pinned cold-analyze digests" `Quick
            test_driver_pinned_cold_analyze_digests;
        ] );
      ( "eipv",
        [
          Alcotest.test_case "interval count" `Quick test_eipv_interval_count;
          Alcotest.test_case "counts sum to spi" `Quick test_eipv_counts_sum_to_spi;
          Alcotest.test_case "instantaneous CPI" `Quick test_eipv_cpi_matches_samples;
          Alcotest.test_case "features cover eips" `Quick test_eipv_features_cover_eips;
          Alcotest.test_case "dataset roundtrip" `Quick test_eipv_dataset_roundtrip;
          Alcotest.test_case "rejects too few samples" `Quick test_eipv_rejects_too_few;
          Alcotest.test_case "thread-separated pooling" `Quick test_eipv_thread_separated_pool;
          Alcotest.test_case "breakdown components" `Quick test_breakdown_components_positive;
          QCheck_alcotest.to_alcotest prop_builder_matches_oracle;
        ] );
    ]
