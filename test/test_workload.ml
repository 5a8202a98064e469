(* Tests for the workload models. *)

module Code_map = Workload.Code_map
module Model = Workload.Model
module Synth = Workload.Synth
module Catalog = Workload.Catalog
module Spec = Workload.Spec
module Sink = Dbengine.Sink
module Rng = Stats.Rng

(* ------------------------------ Code_map --------------------------- *)

let test_code_map_register_draw () =
  let m = Code_map.create () in
  Code_map.register m ~region:5 ~n_eips:100 ();
  Alcotest.(check bool) "registered" true (Code_map.registered m ~region:5);
  let rng = Rng.create 1 in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 5000 do
    let eip = Code_map.draw_eip m rng ~region:5 in
    Alcotest.(check int) "eip maps back to region" 5 (Code_map.eip_region eip);
    Hashtbl.replace seen eip ()
  done;
  Alcotest.(check bool) "many unique eips drawn" true (Hashtbl.length seen > 50);
  Alcotest.(check bool) "at most n_eips" true (Hashtbl.length seen <= 100)

let test_code_map_rejects_double_registration () =
  let m = Code_map.create () in
  Code_map.register m ~region:1 ~n_eips:10 ();
  Alcotest.check_raises "dup" (Invalid_argument "Code_map.register: region 1 already registered")
    (fun () -> Code_map.register m ~region:1 ~n_eips:10 ())

let test_code_map_lines_weight () =
  let m = Code_map.create () in
  Code_map.register m ~region:2 ~n_eips:500 ();
  let rng = Rng.create 2 in
  let buf = Array.make 32 (-1) in
  let n = Code_map.code_lines m rng ~region_instrs:[| (2, 30_000) |] ~lines:buf in
  Alcotest.(check bool) "some lines" true (n > 0 && n <= 32);
  (* total fetch events = instrs / instrs_per_line_fetch *)
  let weight = Code_map.line_weight ~instrs:30_000 ~lines:n in
  let events = weight *. float_of_int n in
  Alcotest.(check (float 1.0)) "weight calibrated" (30_000.0 /. Code_map.instrs_per_line_fetch)
    events;
  for i = 0 to n - 1 do
    Alcotest.(check int) "line aligned" 0 (buf.(i) land 63)
  done

let test_code_map_empty_quantum () =
  let m = Code_map.create () in
  let rng = Rng.create 3 in
  let n = Code_map.code_lines m rng ~region_instrs:[||] ~lines:(Array.make 8 0) in
  Alcotest.(check int) "no lines" 0 n;
  Alcotest.(check (float 1e-9)) "zero weight" 0.0 (Code_map.line_weight ~instrs:0 ~lines:n)

(* The lines are the region's draws, last drawn first, as the list the
   buffer replaced gave them; a smaller second quantum reuses the buffer
   and reports only its own count. *)
let test_code_map_lines_newest_first () =
  let m = Code_map.create () in
  Code_map.register m ~region:2 ~n_eips:500 ();
  let buf = Array.make 16 (-1) in
  let n = Code_map.code_lines m (Rng.create 4) ~region_instrs:[| (2, 1000) |] ~lines:buf in
  let replay = Rng.create 4 in
  let drawn = List.init 16 (fun _ -> Code_map.draw_eip m replay ~region:2 land lnot 63) in
  Alcotest.(check int) "full buffer" 16 n;
  Alcotest.(check (list int)) "newest first" (List.rev drawn) (Array.to_list buf);
  let m2 = Code_map.create () in
  List.iter (fun region -> Code_map.register m2 ~region ~n_eips:10 ()) [ 1; 2; 3 ];
  (* Three regions at 1/100 of the budget each: one line apiece. *)
  let n =
    Code_map.code_lines m2 (Rng.create 5) ~region_instrs:[| (1, 1); (2, 1); (3, 98) |] ~lines:buf
  in
  Alcotest.(check int) "one line per small region, the rest to the large one" 16 n;
  Alcotest.(check int) "region 1's line last" 1 (Code_map.eip_region buf.(15))

(* ------------------------------- Synth ----------------------------- *)

let synth_thread ?(phases = 2) () =
  let code = Code_map.create () in
  let space = Dbengine.Addr_space.create () in
  let rng = Rng.create 7 in
  let ps =
    Array.init phases (fun i ->
        Synth.phase
          ~label:(Printf.sprintf "p%d" i)
          ~region:(100 + i) ~n_eips:50 ~work_bytes:65536 ~pattern:Synth.Random
          ~duration_quanta:(3, 5) ())
  in
  (code, Synth.thread rng ~code ~space ~phases:ps ~tid:0)

let test_synth_registers_regions () =
  let code, _ = synth_thread () in
  Alcotest.(check bool) "region 100" true (Code_map.registered code ~region:100);
  Alcotest.(check bool) "region 101" true (Code_map.registered code ~region:101)

let test_synth_emits_budget () =
  let _, th = synth_thread () in
  let sink = Sink.create () in
  (match th.Model.fill sink ~budget:20_000 with
  | `Ok -> ()
  | `Blocked -> Alcotest.fail "synth threads never block");
  Alcotest.(check int) "instrs = budget" 20_000 (Sink.total_instrs sink);
  Alcotest.(check bool) "refs emitted" true ((Sink.drain sink).Sink.n_refs > 0)

let test_synth_phases_cycle () =
  let _, th = synth_thread ~phases:2 () in
  let sink = Sink.create () in
  let regions_seen = Hashtbl.create 4 in
  for _ = 1 to 30 do
    ignore (th.Model.fill sink ~budget:10_000);
    let d = Sink.drain sink in
    Array.iter (fun (r, _) -> Hashtbl.replace regions_seen r ()) d.Sink.region_instrs
  done;
  Alcotest.(check bool) "both phases executed" true
    (Hashtbl.mem regions_seen 100 && Hashtbl.mem regions_seen 101)

let test_synth_sequential_pattern_is_sequential () =
  let code = Code_map.create () in
  let space = Dbengine.Addr_space.create () in
  let p =
    Synth.phase ~label:"s" ~region:50 ~n_eips:10 ~work_bytes:(1 lsl 20)
      ~pattern:Synth.Sequential ~hot_frac:0.0 ~duration_quanta:(100, 100) ()
  in
  let th = Synth.thread (Rng.create 9) ~code ~space ~phases:[| p |] ~tid:0 in
  let sink = Sink.create () in
  ignore (th.Model.fill sink ~budget:20_000);
  let d = Sink.drain sink in
  let increasing = ref 0 in
  for i = 1 to d.Sink.n_refs - 1 do
    if d.Sink.addrs.(i) > d.Sink.addrs.(i - 1) then incr increasing
  done;
  Alcotest.(check bool) "mostly increasing addresses" true
    (float_of_int !increasing /. float_of_int (max 1 (d.Sink.n_refs - 1)) > 0.9)

let test_synth_validation () =
  Alcotest.check_raises "bad duration" (Invalid_argument "Synth.phase: bad duration range")
    (fun () ->
      ignore
        (Synth.phase ~label:"x" ~region:1 ~n_eips:1 ~work_bytes:1024 ~pattern:Synth.Random
           ~duration_quanta:(5, 2) ()));
  Alcotest.check_raises "bad hot_frac" (Invalid_argument "Synth.phase: hot_frac out of [0,1]")
    (fun () ->
      ignore
        (Synth.phase ~label:"x" ~region:1 ~n_eips:1 ~work_bytes:1024 ~pattern:Synth.Random
           ~hot_frac:1.5 ~duration_quanta:(1, 2) ()))

(* ------------------------------ Catalog ---------------------------- *)

let test_catalog_has_50_entries () =
  Alcotest.(check int) "50 workloads" 50 (Array.length Catalog.all);
  let count p = Array.length (Array.of_list (List.filter p (Array.to_list Catalog.all))) in
  Alcotest.(check int) "26 SPEC" 26 (count (fun e -> e.Catalog.kind = Catalog.Spec));
  Alcotest.(check int) "22 ODB-H" 22
    (count (fun e -> match e.Catalog.kind with Catalog.Odb_h _ -> true | _ -> false));
  Alcotest.(check int) "2 servers" 2
    (count (fun e -> e.Catalog.kind = Catalog.Odb_c || e.Catalog.kind = Catalog.Sjas))

let test_catalog_names_unique () =
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun e ->
      Alcotest.(check bool) "unique" false (Hashtbl.mem seen e.Catalog.name);
      Hashtbl.add seen e.Catalog.name ())
    Catalog.all

let test_catalog_sorted_by_name () =
  (* The listing order is a published invariant: `repro workloads`,
     Table 2 and the zoo all rely on it being sorted by name. *)
  let names = Array.to_list (Array.map (fun e -> e.Catalog.name) Catalog.all) in
  Alcotest.(check (list string)) "sorted by name" (List.sort String.compare names) names;
  Alcotest.(check (list string)) "Catalog.names agrees" names (Array.to_list Catalog.names)

let test_catalog_find () =
  Alcotest.(check int) "odb_c expected Q1" 1 (Catalog.find "odb_c").Catalog.expected_quadrant;
  Alcotest.(check int) "q13 expected Q4" 4 (Catalog.find "odb_h_q13").Catalog.expected_quadrant;
  Alcotest.(check int) "q18 expected Q3" 3 (Catalog.find "odb_h_q18").Catalog.expected_quadrant;
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Catalog.find "nope"))

let test_catalog_quadrant_counts_match_paper_anchors () =
  let count q kinds =
    Array.to_list Catalog.all
    |> List.filter (fun e ->
           e.Catalog.expected_quadrant = q
           && List.exists
                (fun k ->
                  match (k, e.Catalog.kind) with
                  | `Spec, Catalog.Spec -> true
                  | `Odbh, Catalog.Odb_h _ -> true
                  | `Server, (Catalog.Odb_c | Catalog.Sjas) -> true
                  | _ -> false)
                kinds)
    |> List.length
  in
  (* Prose anchors: 13 SPEC in Q-I; 7 SPEC and 7 ODB-H (plus SjAS) in
     Q-III; 9 ODB-H and 3 SPEC in Q-IV. *)
  Alcotest.(check int) "13 SPEC in Q-I" 13 (count 1 [ `Spec ]);
  Alcotest.(check int) "7 SPEC in Q-III" 7 (count 3 [ `Spec ]);
  Alcotest.(check int) "7 ODB-H in Q-III" 7 (count 3 [ `Odbh ]);
  Alcotest.(check int) "3 SPEC in Q-IV" 3 (count 4 [ `Spec ]);
  Alcotest.(check int) "9 ODB-H in Q-IV" 9 (count 4 [ `Odbh ])

let test_all_models_produce_work () =
  (* Every catalog entry can build (tiny scale) and its first thread can
     fill a quantum. *)
  Array.iter
    (fun e ->
      let m = e.Catalog.build ~seed:11 ~scale:0.02 in
      Alcotest.(check bool) "has threads" true (Array.length m.Model.threads > 0);
      let sink = Sink.create () in
      ignore (m.Model.threads.(0).Model.fill sink ~budget:5_000);
      Alcotest.(check bool)
        (e.Catalog.name ^ " produces instructions")
        true
        (Sink.total_instrs sink > 0))
    Catalog.all

(* -------------------------------- Spec ----------------------------- *)

let test_spec_names () =
  Alcotest.(check int) "26 benchmarks" 26 (Array.length Spec.names);
  Alcotest.check_raises "unknown" (Invalid_argument "Spec: unknown benchmark nope") (fun () ->
      ignore (Spec.model ~seed:1 "nope"))

let test_spec_quadrant_anchors () =
  Alcotest.(check int) "gcc Q3" 3 (Spec.expected_quadrant "gcc");
  Alcotest.(check int) "gap Q3" 3 (Spec.expected_quadrant "gap");
  Alcotest.(check int) "mcf Q4" 4 (Spec.expected_quadrant "mcf")

let test_spec_single_threaded () =
  let m = Spec.model ~seed:1 "gzip" in
  Alcotest.(check int) "one thread" 1 (Array.length m.Model.threads);
  Alcotest.(check bool) "rare switches" true (m.Model.switch_period > 1_000_000)

(* ------------------------------- Model ----------------------------- *)

let test_model_registers_os_region () =
  let m = Spec.model ~seed:1 "gzip" in
  Alcotest.(check bool) "os region present" true
    (Code_map.registered m.Model.code ~region:Model.os_region_id)

let test_model_rejects_no_threads () =
  let code = Code_map.create () in
  Alcotest.check_raises "no threads" (Invalid_argument "Workload.make: no threads") (fun () ->
      ignore (Model.make ~name:"x" ~code ~threads:[||] ()))

let test_server_models_multithreaded () =
  let odbc = (Catalog.find "odb_c").Catalog.build ~seed:1 ~scale:0.05 in
  let sjas = (Catalog.find "sjas").Catalog.build ~seed:1 ~scale:0.05 in
  Alcotest.(check bool) "odb_c many threads" true (Array.length odbc.Model.threads >= 8);
  Alcotest.(check bool) "sjas many threads" true (Array.length sjas.Model.threads >= 4);
  Alcotest.(check bool) "odb_c switches fast" true (odbc.Model.switch_period < 1_000_000)

let test_oltp_code_footprint_large () =
  (* OLTP samples spread over a far larger code footprint than a SPEC
     loop nest's. *)
  let unique_eips name =
    let m = (Catalog.find name).Catalog.build ~seed:1 ~scale:0.05 in
    let cpu = March.Cpu.create March.Config.itanium2 in
    let run = Sampling.Driver.run m ~cpu ~rng:(Rng.create 1) ~samples:2000 in
    let seen = Hashtbl.create 1024 in
    Array.iter (fun s -> Hashtbl.replace seen s.Sampling.Driver.eip ()) run.Sampling.Driver.samples;
    Hashtbl.length seen
  in
  let odb_c = unique_eips "odb_c" and gzip = unique_eips "gzip" in
  Alcotest.(check bool)
    (Printf.sprintf "odb_c %d unique eips > 3 x gzip %d" odb_c gzip)
    true
    (odb_c > 3 * gzip)

let () =
  Alcotest.run "workload"
    [
      ( "code_map",
        [
          Alcotest.test_case "register and draw" `Quick test_code_map_register_draw;
          Alcotest.test_case "rejects double registration" `Quick
            test_code_map_rejects_double_registration;
          Alcotest.test_case "line weights calibrated" `Quick test_code_map_lines_weight;
          Alcotest.test_case "empty quantum" `Quick test_code_map_empty_quantum;
          Alcotest.test_case "lines newest first" `Quick test_code_map_lines_newest_first;
        ] );
      ( "synth",
        [
          Alcotest.test_case "registers regions" `Quick test_synth_registers_regions;
          Alcotest.test_case "emits budget" `Quick test_synth_emits_budget;
          Alcotest.test_case "phases cycle" `Quick test_synth_phases_cycle;
          Alcotest.test_case "sequential pattern" `Quick test_synth_sequential_pattern_is_sequential;
          Alcotest.test_case "validation" `Quick test_synth_validation;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "50 entries" `Quick test_catalog_has_50_entries;
          Alcotest.test_case "unique names" `Quick test_catalog_names_unique;
          Alcotest.test_case "sorted by name" `Quick test_catalog_sorted_by_name;
          Alcotest.test_case "find" `Quick test_catalog_find;
          Alcotest.test_case "paper anchor counts" `Quick
            test_catalog_quadrant_counts_match_paper_anchors;
          Alcotest.test_case "all models produce work" `Slow test_all_models_produce_work;
        ] );
      ( "spec",
        [
          Alcotest.test_case "names" `Quick test_spec_names;
          Alcotest.test_case "quadrant anchors" `Quick test_spec_quadrant_anchors;
          Alcotest.test_case "single-threaded" `Quick test_spec_single_threaded;
        ] );
      ( "model",
        [
          Alcotest.test_case "os region" `Quick test_model_registers_os_region;
          Alcotest.test_case "rejects empty" `Quick test_model_rejects_no_threads;
          Alcotest.test_case "servers multithreaded" `Quick test_server_models_multithreaded;
          Alcotest.test_case "oltp code footprint" `Quick test_oltp_code_footprint_large;
        ] );
    ]
