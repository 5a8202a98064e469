(* Tests for the workload zoo: manifest codec, scenario generation,
   determinism of regenerated scenarios, the quadrant atlas and the
   quadrant/technique classification edges it depends on. *)

module Manifest = Zoo.Manifest
module Scenarios = Zoo.Scenarios
module Atlas = Zoo.Atlas
module Rng = Stats.Rng

let all = Scenarios.all ()
let names = List.map (fun s -> s.Scenarios.manifest.Manifest.name) all

let get_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected error %s" what e

(* A tiny analysis configuration for determinism tests: fidelity is
   irrelevant, only bit-identity across jobs values. *)
let tiny_config =
  {
    Fuzzy.Analysis.quick with
    Fuzzy.Analysis.intervals = 16;
    samples_per_interval = 20;
    kmax = 6;
    scale = 0.05;
  }

(* ----------------------------- manifests --------------------------- *)

let test_manifest_roundtrip_all () =
  List.iter
    (fun s ->
      let m = s.Scenarios.manifest in
      let line = Manifest.encode m in
      match Manifest.decode line with
      | Error e -> Alcotest.failf "%s does not decode: %s" line e
      | Ok m' ->
          Alcotest.(check bool) (m.Manifest.name ^ " roundtrips") true (Manifest.equal m m');
          Alcotest.(check string) "re-encode is stable" line (Manifest.encode m'))
    all

let test_manifest_validation () =
  let ok = Result.is_ok and err = Result.is_error in
  Alcotest.(check bool) "plain tokens" true
    (ok (Manifest.make ~name:"a-b.c+d_2" ~family:"synth" ~machine:"xeon" ~params:[]));
  Alcotest.(check bool) "pipe in name" true
    (err (Manifest.make ~name:"a|b" ~family:"synth" ~machine:"xeon" ~params:[]));
  Alcotest.(check bool) "comma in value" true
    (err (Manifest.make ~name:"a" ~family:"f" ~machine:"m" ~params:[ ("k", "1,2") ]));
  Alcotest.(check bool) "empty name" true
    (err (Manifest.make ~name:"" ~family:"f" ~machine:"m" ~params:[]));
  Alcotest.(check bool) "duplicate key" true
    (err (Manifest.make ~name:"a" ~family:"f" ~machine:"m" ~params:[ ("k", "1"); ("k", "2") ]));
  let m =
    get_ok "sorting"
      (Manifest.make ~name:"a" ~family:"f" ~machine:"m" ~params:[ ("z", "1"); ("b", "2") ])
  in
  Alcotest.(check string) "params sorted by key" "zoo1|a|f|m|b=2,z=1" (Manifest.encode m);
  Alcotest.(check bool) "unknown version tag" true (err (Manifest.decode "zoo9|a|f|m|"));
  Alcotest.(check bool) "wrong field count" true (err (Manifest.decode "zoo1|a|f|m"));
  Alcotest.(check bool) "param without =" true (err (Manifest.decode "zoo1|a|f|m|k"))

(* ----------------------------- scenarios --------------------------- *)

let test_zoo_size () =
  Alcotest.(check bool)
    (Printf.sprintf "at least 200 scenarios (got %d)" (List.length all))
    true
    (List.length all >= 200)

let test_zoo_names_unique_sorted () =
  Alcotest.(check bool) "sorted" true (names = List.sort String.compare names);
  Alcotest.(check bool) "unique" true (names = List.sort_uniq String.compare names)

let test_quick_subset () =
  let quick = Scenarios.quick () in
  Alcotest.(check bool) "non-empty" true (List.length quick > 0);
  Alcotest.(check bool) "proper subset" true (List.length quick < List.length all);
  List.iter
    (fun s ->
      let name = s.Scenarios.manifest.Manifest.name in
      Alcotest.(check bool) (name ^ " is in the zoo") true (List.mem name names))
    quick;
  (* The subset must exercise every generator family. *)
  let families =
    List.sort_uniq String.compare
      (List.map (fun s -> s.Scenarios.manifest.Manifest.family) quick)
  in
  Alcotest.(check (list string)) "all families represented"
    [ "appserver"; "dss"; "oltp"; "synth"; "tenant" ]
    families

let test_bad_manifests_rejected () =
  let m family machine params =
    get_ok "make" (Manifest.make ~name:"x" ~family ~machine ~params)
  in
  Alcotest.(check bool) "unknown family" true
    (Result.is_error (Scenarios.model (m "bogus" "xeon" []) ~seed:1 ~scale:0.05));
  Alcotest.(check bool) "unknown machine" true
    (Result.is_error (Scenarios.machine (m "synth" "z80" [])));
  Alcotest.(check bool) "missing synth params" true
    (Result.is_error (Scenarios.model (m "synth" "xeon" []) ~seed:1 ~scale:0.05));
  Alcotest.(check bool) "bad dss query" true
    (Result.is_error
       (Scenarios.model
          (m "dss" "itanium2" [ ("query", "23"); ("threads", "1") ])
          ~seed:1 ~scale:0.05));
  Alcotest.(check bool) "bad tenant component" true
    (Result.is_error
       (Scenarios.model (m "tenant" "xeon" [ ("a", "oltp"); ("b", "q99") ]) ~seed:1 ~scale:0.05))

let test_all_scenarios_build_and_produce_work () =
  List.iter
    (fun s ->
      let m = s.Scenarios.manifest in
      ignore (get_ok (m.Manifest.name ^ " machine") (Scenarios.machine m));
      let model = get_ok m.Manifest.name (Scenarios.model m ~seed:11 ~scale:0.02) in
      Alcotest.(check string) "model named after scenario" m.Manifest.name
        model.Workload.Model.name;
      let sink = Dbengine.Sink.create () in
      ignore (model.Workload.Model.threads.(0).Workload.Model.fill sink ~budget:5_000);
      Alcotest.(check bool)
        (m.Manifest.name ^ " produces instructions")
        true
        (Dbengine.Sink.total_instrs sink > 0))
    all

let test_tenant_merges_threads () =
  let s =
    match
      List.find_opt
        (fun s -> s.Scenarios.manifest.Manifest.name = "tenant-itanium2-oltp-q13")
        (Scenarios.all ())
    with
    | Some s -> s
    | None -> Alcotest.fail "tenant-itanium2-oltp-q13 missing"
  in
  let model = get_ok "tenant" (Scenarios.model s.Scenarios.manifest ~seed:7 ~scale:0.05) in
  let oltp =
    Workload.Oltp.model
      ~params:{ Workload.Oltp.default_params with Workload.Oltp.scale = 0.05 }
      ~seed:7 ()
  in
  Alcotest.(check bool) "more threads than one tenant" true
    (Array.length model.Workload.Model.threads > Array.length oltp.Workload.Model.threads);
  Array.iteri
    (fun i t -> Alcotest.(check int) "tids reindexed" i t.Workload.Model.tid)
    model.Workload.Model.threads

(* ------------------------ determinism (QCheck) --------------------- *)

let scenario_gen = QCheck2.Gen.(map (fun i -> List.nth all i) (int_range 0 (List.length all - 1)))

let sample_stream m ~samples =
  let machine = get_ok "machine" (Scenarios.machine m) in
  let model = get_ok "model" (Scenarios.model m ~seed:5 ~scale:0.05) in
  let cpu = March.Cpu.create machine in
  let rng = Rng.split_label 5 m.Manifest.name in
  let acc = ref [] in
  let _meta =
    Sampling.Driver.stream ~period:20_000 model ~cpu ~rng ~samples ~f:(fun _ s ->
        acc := s :: !acc)
  in
  List.rev !acc

let prop_manifest_regenerates_identical_stream =
  QCheck2.Test.make
    ~name:"decode (encode m) rebuilds a byte-identical sample stream" ~count:12 scenario_gen
    (fun s ->
      let m = s.Scenarios.manifest in
      let m' = get_ok "decode" (Manifest.decode (Manifest.encode m)) in
      sample_stream m ~samples:30 = sample_stream m' ~samples:30)

let token_gen =
  QCheck2.Gen.(
    map
      (fun cs -> String.concat "" (List.map (String.make 1) cs))
      (list_size (int_range 1 12)
         (oneof
            [
              char_range 'a' 'z';
              char_range 'A' 'Z';
              char_range '0' '9';
              oneofl [ '_'; '.'; '+'; '-' ];
            ])))

let prop_manifest_roundtrip =
  (* Keys are deduplicated before make so the property only feeds valid
     manifests; make's own rejection paths are covered above. *)
  QCheck2.Test.make ~name:"random manifest encode/decode roundtrip" ~count:200
    QCheck2.Gen.(
      quad token_gen token_gen token_gen (list_size (int_range 0 6) (pair token_gen token_gen)))
    (fun (name, family, machine, params) ->
      let params =
        List.fold_left
          (fun acc (k, v) -> if List.mem_assoc k acc then acc else (k, v) :: acc)
          [] params
      in
      match Manifest.make ~name ~family ~machine ~params with
      | Error e -> QCheck2.Test.fail_reportf "valid tokens rejected: %s" e
      | Ok m -> (
          match Manifest.decode (Manifest.encode m) with
          | Error e -> QCheck2.Test.fail_reportf "decode failed: %s" e
          | Ok m' -> Manifest.equal m m'))

let prop_atlas_rows_jobs_invariant =
  QCheck2.Test.make ~name:"atlas rows are bit-identical at jobs=1 and jobs=4" ~count:3
    scenario_gen (fun s ->
      let rows jobs =
        get_ok "rows" (Atlas.rows { tiny_config with Fuzzy.Analysis.jobs } [ s ])
      in
      rows 1 = rows 4)

(* --------------------------- quadrant edges ------------------------ *)

let quadrant = Alcotest.testable Fuzzy.Quadrant.pp ( = )

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn = 0 || at 0

let test_quadrant_threshold_edges () =
  let classify ~cpi_variance ~re = Fuzzy.Quadrant.classify ~cpi_variance ~re () in
  let v = Fuzzy.Quadrant.default_var_threshold in
  let r = Fuzzy.Quadrant.default_re_threshold in
  (* Both thresholds are inclusive: exactly-at-threshold is the low /
     predictable side. *)
  Alcotest.check quadrant "at both thresholds" Fuzzy.Quadrant.Q2
    (classify ~cpi_variance:v ~re:r);
  Alcotest.check quadrant "origin" Fuzzy.Quadrant.Q2 (classify ~cpi_variance:0.0 ~re:0.0);
  Alcotest.check quadrant "just above RE" Fuzzy.Quadrant.Q1
    (classify ~cpi_variance:v ~re:(r +. 1e-9));
  Alcotest.check quadrant "just above variance" Fuzzy.Quadrant.Q4
    (classify ~cpi_variance:(v +. 1e-9) ~re:r);
  Alcotest.check quadrant "just above both" Fuzzy.Quadrant.Q3
    (classify ~cpi_variance:(v +. 1e-9) ~re:(r +. 1e-9));
  Alcotest.check quadrant "far corner" Fuzzy.Quadrant.Q3
    (classify ~cpi_variance:10.0 ~re:1.0);
  (* Custom thresholds shift the boundary, not the semantics. *)
  Alcotest.check quadrant "custom thresholds" Fuzzy.Quadrant.Q2
    (Fuzzy.Quadrant.classify ~var_threshold:0.5 ~re_threshold:0.5 ~cpi_variance:0.4 ~re:0.4 ())

let test_quadrant_technique_mapping () =
  (* Every verdict maps to exactly one technique, pinned to the paper's
     Section 7 prescription. *)
  let open Fuzzy in
  Alcotest.(check string) "Q-I" "uniform" (Techniques.to_string (Techniques.recommend Quadrant.Q1));
  Alcotest.(check string) "Q-II" "uniform" (Techniques.to_string (Techniques.recommend Quadrant.Q2));
  Alcotest.(check string) "Q-III" "random" (Techniques.to_string (Techniques.recommend Quadrant.Q3));
  Alcotest.(check string) "Q-IV" "phase_based"
    (Techniques.to_string (Techniques.recommend Quadrant.Q4));
  List.iter
    (fun q ->
      Alcotest.(check int) "recommendation is deterministic" 1
        (List.length
           (List.sort_uniq compare [ Techniques.recommend q; Techniques.recommend q ])))
    [ Quadrant.Q1; Quadrant.Q2; Quadrant.Q3; Quadrant.Q4 ]

(* ------------------------------- atlas ----------------------------- *)

let atlas_scenarios =
  List.filter
    (fun s ->
      List.mem s.Scenarios.manifest.Manifest.name
        [ "synth-itanium2-l1-seq-steady"; "dss-itanium2-q13-t1" ])
    all

let test_atlas_rows_and_render () =
  let rows = get_ok "rows" (Atlas.rows tiny_config atlas_scenarios) in
  Alcotest.(check int) "one row per scenario" (List.length atlas_scenarios) (List.length rows);
  List.iter
    (fun r ->
      (* The committed golden depends on this invariant: the printed
         technique is always the recommendation for the printed verdict. *)
      Alcotest.(check bool) "technique matches quadrant" true
        (r.Atlas.technique = Fuzzy.Techniques.recommend r.Atlas.quadrant))
    rows;
  let txt = Atlas.render tiny_config rows in
  Alcotest.(check bool) "schema in header" true
    (contains_sub txt Atlas.schema);
  Alcotest.(check bool) "quadrant counts line" true
    (contains_sub txt "quadrant counts:");
  let json = Atlas.render_json tiny_config rows in
  List.iter
    (fun affix ->
      Alcotest.(check bool) (affix ^ " in json") true
        (contains_sub json affix))
    [ "\"schema\": \"zoo-atlas/v1\""; "\"scenarios\": ["; "\"quadrant_counts\""; "\"technique\"" ];
  let qc = Atlas.quadrant_counts rows in
  Alcotest.(check int) "counts sum to rows" (List.length rows)
    (Array.fold_left ( + ) 0 qc);
  Alcotest.(check int) "technique counts sum to rows" (List.length rows)
    (List.fold_left (fun a (_, n) -> a + n) 0 (Atlas.technique_counts rows))

let test_atlas_error_propagates () =
  let bad =
    {
      Scenarios.manifest =
        get_ok "make" (Manifest.make ~name:"x" ~family:"bogus" ~machine:"xeon" ~params:[]);
      quick = false;
    }
  in
  Alcotest.(check bool) "unknown family surfaces as Error" true
    (Result.is_error (Atlas.rows tiny_config [ bad ]))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "zoo"
    [
      ( "manifest",
        [
          Alcotest.test_case "all zoo manifests roundtrip" `Quick test_manifest_roundtrip_all;
          Alcotest.test_case "validation" `Quick test_manifest_validation;
        ]
        @ qcheck [ prop_manifest_roundtrip ] );
      ( "scenarios",
        [
          Alcotest.test_case "200+ scenarios" `Quick test_zoo_size;
          Alcotest.test_case "names unique and sorted" `Quick test_zoo_names_unique_sorted;
          Alcotest.test_case "quick subset" `Quick test_quick_subset;
          Alcotest.test_case "bad manifests rejected" `Quick test_bad_manifests_rejected;
          Alcotest.test_case "tenant merges threads" `Quick test_tenant_merges_threads;
          Alcotest.test_case "all scenarios build and produce work" `Slow
            test_all_scenarios_build_and_produce_work;
        ]
        @ qcheck [ prop_manifest_regenerates_identical_stream ] );
      ( "atlas",
        [
          Alcotest.test_case "rows and render" `Quick test_atlas_rows_and_render;
          Alcotest.test_case "build errors propagate" `Quick test_atlas_error_propagates;
        ]
        @ qcheck [ prop_atlas_rows_jobs_invariant ] );
      ( "quadrant",
        [
          Alcotest.test_case "threshold edges" `Quick test_quadrant_threshold_edges;
          Alcotest.test_case "technique mapping" `Quick test_quadrant_technique_mapping;
        ] );
    ]
