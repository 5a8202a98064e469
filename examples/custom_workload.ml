(* Build a custom workload with the phase-machine DSL and measure its CPI
   predictability.  This is the path a user takes to ask: "would my
   application's phases be visible to an EIP-based sampler?"

   The example program alternates three phases:
   - "parse":  branchy, cache-resident;
   - "kernel": streaming over a 12 MB array (memory-bound);
   - "emit":   random references over a medium working set;
   plus a fourth "background" phase whose reference rate drifts with a
   random walk the EIPs cannot see (a Q-III ingredient).

   Run with:  dune exec examples/custom_workload.exe *)

module Synth = Workload.Synth

let build_model ~seed =
  let code = Workload.Code_map.create () in
  let space = Dbengine.Addr_space.create () in
  let rng = Stats.Rng.create seed in
  let phases =
    [|
      Synth.phase ~label:"parse" ~region:9000 ~n_eips:800 ~work_bytes:(256 * 1024)
        ~pattern:Synth.Random ~branches_per_kinstr:180.0 ~branch_entropy:0.25
        ~duration_quanta:(150, 300) ();
      Synth.phase ~label:"kernel" ~region:9001 ~n_eips:120 ~work_bytes:(12 * 1024 * 1024)
        ~pattern:Synth.Sequential ~refs_per_kinstr:420.0 ~hot_frac:0.5
        ~branch_entropy:0.02 ~duration_quanta:(200, 400) ();
      Synth.phase ~label:"emit" ~region:9002 ~n_eips:300 ~work_bytes:(2 * 1024 * 1024)
        ~pattern:Synth.Random ~duration_quanta:(100, 200) ();
      Synth.phase ~label:"background" ~region:9003 ~n_eips:500 ~work_bytes:(4 * 1024 * 1024)
        ~pattern:Synth.Random
        ~rate_mod:(Synth.Walk { step = 0.08; lo = 0.5; hi = 2.0 })
        ~duration_quanta:(100, 250) ();
    |]
  in
  let thread = Synth.thread rng ~code ~space ~phases ~tid:0 in
  Workload.Model.make ~name:"my_app" ~code ~threads:[| thread |] ()

let () =
  let model = build_model ~seed:2026 in
  let config = { Fuzzy.Analysis.default with Fuzzy.Analysis.intervals = 96 } in
  Printf.printf "Simulating custom workload '%s'...\n%!" model.Workload.Model.name;
  let a = Fuzzy.Analysis.analyze_model config model in
  Format.printf "%a@.@." Fuzzy.Analysis.pp_summary a;
  print_string (Fuzzy.Report.re_curve a.Fuzzy.Analysis.curve);
  print_newline ();
  print_string (Fuzzy.Report.breakdown_series a.Fuzzy.Analysis.eipv ~points:12);
  Printf.printf "\nVerdict: %s -- %s\n"
    (Fuzzy.Quadrant.to_string a.Fuzzy.Analysis.quadrant)
    (Fuzzy.Quadrant.description a.Fuzzy.Analysis.quadrant)
