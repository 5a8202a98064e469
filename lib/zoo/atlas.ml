(* The quadrant atlas: every zoo scenario pushed through the full
   predictability pipeline on the shared pool, reduced to one row of
   (CPI variance, RE, quadrant, recommended technique).  The rendered
   forms have a deterministic schema and are golden-compared in CI, so
   atlas rows must be a pure function of (manifests, analysis config) —
   no clocks, no pool-order dependence, no Hashtbl iteration. *)

type row = {
  name : string;
  family : string;
  machine : string;
  cpi : float;
  cpi_variance : float;
  re_kopt : float;
  kopt : int;
  re_final : float;
  quadrant : Fuzzy.Quadrant.t;
  technique : Fuzzy.Techniques.technique;
}

let schema = "zoo-atlas/v1"

let row_of_analysis ~family ~machine (a : Fuzzy.Analysis.t) =
  {
    name = a.Fuzzy.Analysis.name;
    family;
    machine;
    cpi = a.Fuzzy.Analysis.cpi;
    cpi_variance = a.Fuzzy.Analysis.cpi_variance;
    re_kopt = a.Fuzzy.Analysis.re_kopt;
    kopt = a.Fuzzy.Analysis.kopt;
    re_final = a.Fuzzy.Analysis.re_final;
    quadrant = a.Fuzzy.Analysis.quadrant;
    technique = Fuzzy.Techniques.recommend a.Fuzzy.Analysis.quadrant;
  }

let analyze_one config (s : Scenarios.scenario) =
  let m = s.Scenarios.manifest in
  match Scenarios.machine m with
  | Error _ as e -> e
  | Ok machine -> (
      match
        Scenarios.model m ~seed:config.Fuzzy.Analysis.seed ~scale:config.Fuzzy.Analysis.scale
      with
      | Error _ as e -> e
      | Ok model ->
          let config = { config with Fuzzy.Analysis.machine } in
          let a = Fuzzy.Analysis.analyze_model config model in
          Ok (row_of_analysis ~family:m.Manifest.family ~machine:m.Manifest.machine a))

let rows config scenarios =
  (* One [Pool.map], as in Experiments.analyze_many but without its memo:
     a scenario model is not a catalog workload, so every row is computed
     here.  Results come back in input order and each task's randomness is
     keyed on its scenario name, so the row list is bit-identical for
     every [config.jobs]. *)
  let pool = Fuzzy.Analysis.pool config in
  let results = Parallel.Pool.map pool (analyze_one config) (Array.of_list scenarios) in
  let rec sequence acc i =
    if i >= Array.length results then Ok (List.rev acc)
    else
      match results.(i) with
      | Ok r -> sequence (r :: acc) (i + 1)
      | Error _ as e -> e
  in
  sequence [] 0

let quadrant_counts rows =
  let c = Array.make 4 0 in
  List.iter
    (fun r ->
      let i = Fuzzy.Quadrant.to_int r.quadrant - 1 in
      c.(i) <- c.(i) + 1)
    rows;
  c

let technique_counts rows =
  List.map
    (fun t -> (t, List.length (List.filter (fun r -> r.technique = t) rows)))
    Fuzzy.Techniques.all

let config_line (config : Fuzzy.Analysis.config) =
  Printf.sprintf
    "seed=%d scale=%.4f intervals=%d samples_per_interval=%d period=%d kmax=%d folds=%d"
    config.Fuzzy.Analysis.seed config.Fuzzy.Analysis.scale config.Fuzzy.Analysis.intervals
    config.Fuzzy.Analysis.samples_per_interval config.Fuzzy.Analysis.period
    config.Fuzzy.Analysis.kmax config.Fuzzy.Analysis.folds

let render config rows =
  let b = Buffer.create 4096 in
  Printf.bprintf b "workload zoo atlas (%s)\n%s\nscenarios=%d\n\n" schema (config_line config)
    (List.length rows);
  Buffer.add_string b
    (Stats.Table.render
       ~header:
         [|
           "scenario"; "family"; "machine"; "CPI"; "CPI var"; "RE_kopt"; "k_opt"; "RE_inf";
           "quadrant"; "technique";
         |]
       ~rows:
         (List.map
            (fun r ->
              [|
                r.name;
                r.family;
                r.machine;
                Stats.Table.fmt_f ~digits:3 r.cpi;
                Stats.Table.fmt_f ~digits:5 r.cpi_variance;
                Stats.Table.fmt_f ~digits:3 r.re_kopt;
                string_of_int r.kopt;
                Stats.Table.fmt_f ~digits:3 r.re_final;
                Fuzzy.Quadrant.to_string r.quadrant;
                Fuzzy.Techniques.to_string r.technique;
              |])
            rows)
       ());
  let qc = quadrant_counts rows in
  Printf.bprintf b "\nquadrant counts: Q-I=%d Q-II=%d Q-III=%d Q-IV=%d\n" qc.(0) qc.(1) qc.(2)
    qc.(3);
  Printf.bprintf b "technique counts: %s\n"
    (String.concat " "
       (List.map
          (fun (t, n) -> Printf.sprintf "%s=%d" (Fuzzy.Techniques.to_string t) n)
          (technique_counts rows)));
  Buffer.contents b

let render_json config rows =
  let b = Buffer.create 8192 in
  Printf.bprintf b "{\n  \"schema\": \"%s\",\n" schema;
  Printf.bprintf b
    "  \"config\": {\"seed\": %d, \"scale\": %.4f, \"intervals\": %d, \
     \"samples_per_interval\": %d, \"period\": %d, \"kmax\": %d, \"folds\": %d},\n"
    config.Fuzzy.Analysis.seed config.Fuzzy.Analysis.scale config.Fuzzy.Analysis.intervals
    config.Fuzzy.Analysis.samples_per_interval config.Fuzzy.Analysis.period
    config.Fuzzy.Analysis.kmax config.Fuzzy.Analysis.folds;
  Printf.bprintf b "  \"scenarios\": [\n";
  List.iteri
    (fun i r ->
      Printf.bprintf b
        "    {\"name\": \"%s\", \"family\": \"%s\", \"machine\": \"%s\", \"cpi\": %.6f, \
         \"cpi_variance\": %.6f, \"re_kopt\": %.6f, \"kopt\": %d, \"re_final\": %.6f, \
         \"quadrant\": \"%s\", \"technique\": \"%s\"}%s\n"
        r.name r.family r.machine r.cpi r.cpi_variance r.re_kopt r.kopt r.re_final
        (Fuzzy.Quadrant.to_string r.quadrant)
        (Fuzzy.Techniques.to_string r.technique)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.bprintf b "  ],\n";
  let qc = quadrant_counts rows in
  Printf.bprintf b
    "  \"quadrant_counts\": {\"Q-I\": %d, \"Q-II\": %d, \"Q-III\": %d, \"Q-IV\": %d}\n}\n"
    qc.(0) qc.(1) qc.(2) qc.(3);
  Buffer.contents b
