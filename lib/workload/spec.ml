module Rng = Stats.Rng

let kb n = n * 1024
let mb n = n * 1024 * 1024

(* (name, designed quadrant). The quadrant synthesis honours every
   anchor the paper states in prose; see DESIGN.md / EXPERIMENTS.md. *)
let catalog =
  [|
    (* CINT2000 *)
    ("gzip", 1);
    ("vpr", 1);
    ("gcc", 3);
    ("mcf", 4);
    ("crafty", 1);
    ("parser", 1);
    ("eon", 1);
    ("perlbmk", 1);
    ("gap", 3);
    ("vortex", 1);
    ("bzip2", 1);
    ("twolf", 1);
    (* CFP2000 *)
    ("wupwise", 2);
    ("swim", 4);
    ("mgrid", 2);
    ("applu", 2);
    ("mesa", 1);
    ("galgel", 1);
    ("art", 4);
    ("equake", 1);
    ("facerec", 3);
    ("ammp", 3);
    ("lucas", 1);
    ("fma3d", 3);
    ("sixtrack", 3);
    ("apsi", 3);
  |]

let names = Array.map fst catalog

let find name =
  let rec go i =
    if i >= Array.length catalog then invalid_arg ("Spec: unknown benchmark " ^ name)
    else
      let n, q = catalog.(i) in
      if n = name then (i, q) else go (i + 1)
  in
  go 0

let expected_quadrant name =
  let _, q = find name in
  q

let region_base idx = 3000 + (idx * 8)

(* Phase builders.  [rb] is the benchmark's first region id. *)

(* Q-I: one dominant phase; a gentle unobservable rate walk keeps the CPI
   variance non-zero but far below the 0.01 threshold.  Splitting Q-I
   programs into multiple synthetic stages was tried and reverted: each
   stage needs its own working-set area, and the cold-cache transient at
   every stage switch adds exactly the code-correlated CPI variance this
   quadrant must not have. *)
let steady_phases ~rb ~n_eips ~ws ~entropy ~refs ~skew =
  [|
    Synth.phase ~label:"main" ~region:rb ~n_eips ~eip_skew:skew ~work_bytes:ws
      ~pattern:Synth.Random ~refs_per_kinstr:refs ~hot_frac:0.93
      ~branches_per_kinstr:150.0 ~branch_entropy:entropy ~duration_quanta:(50, 200)
      ~rate_mod:(Synth.Walk { step = 0.03; lo = 0.9; hi = 1.1 })
      ();
  |]

(* Q-II: two alternating loop nests with a small CPI gap; durations span
   multiple EIPV intervals so the tree can separate them. *)
let loopnest_phases ~rb ~n_eips ~ws_small ~ws_big ~gap_refs =
  [|
    Synth.phase ~label:"resident" ~region:rb ~n_eips ~eip_skew:1.2 ~work_bytes:ws_small
      ~pattern:Synth.Random ~refs_per_kinstr:330.0 ~hot_frac:0.96
      ~branches_per_kinstr:90.0 ~branch_entropy:0.02 ~duration_quanta:(250, 550) ();
    Synth.phase ~label:"stream" ~region:(rb + 1) ~n_eips:(n_eips / 2) ~eip_skew:1.2
      ~work_bytes:ws_big ~pattern:Synth.Sequential ~refs_per_kinstr:gap_refs ~hot_frac:0.915
      ~branches_per_kinstr:70.0 ~branch_entropy:0.02 ~duration_quanta:(250, 550) ();
  |]

(* Q-III: constant code, data-dependent cache residency (a working window
   sliding through a footprint around the L3 size) plus a strong rate
   walk. *)
let irregular_phases ~rb ~n_eips ~window ~walk ~entropy ~refs ~hot =
  [|
    Synth.phase ~label:"irregular" ~region:rb ~n_eips ~eip_skew:0.9 ~work_bytes:window
      ~pattern:Synth.Random ~refs_per_kinstr:refs ~hot_frac:hot
      ~branches_per_kinstr:160.0 ~branch_entropy:entropy ~duration_quanta:(60, 160)
      ~rate_mod:(Synth.Walk { step = 0.08; lo = 0.55; hi = 1.8 })
      ~work_walk:walk ();
  |]

(* Q-IV: long memory-bound and compute phases with distinct code and a
   large CPI gap. *)
let bimodal_phases ~rb ~n_eips ~ws_heavy ~pattern ~refs_heavy ~hot_heavy =
  [|
    Synth.phase ~label:"memory" ~region:rb ~n_eips ~eip_skew:0.9 ~work_bytes:ws_heavy
      ~pattern ~refs_per_kinstr:refs_heavy ~hot_frac:hot_heavy ~branches_per_kinstr:80.0
      ~branch_entropy:0.06 ~duration_quanta:(300, 700) ();
    Synth.phase ~label:"compute" ~region:(rb + 1) ~n_eips:(max 32 (n_eips / 3))
      ~eip_skew:1.3 ~work_bytes:(kb 48) ~pattern:Synth.Random ~refs_per_kinstr:300.0
      ~hot_frac:0.97 ~branches_per_kinstr:110.0 ~branch_entropy:0.03
      ~duration_quanta:(300, 700) ();
  |]

let phases_of idx name =
  let rb = region_base idx in
  match name with
  (* ---- Q-I ---- *)
  | "gzip" -> steady_phases ~rb ~n_eips:420 ~ws:(kb 768) ~entropy:0.08 ~refs:340.0 ~skew:1.2
  | "vpr" -> steady_phases ~rb ~n_eips:520 ~ws:(mb 1) ~entropy:0.12 ~refs:360.0 ~skew:1.1
  | "crafty" -> steady_phases ~rb ~n_eips:900 ~ws:(kb 512) ~entropy:0.16 ~refs:330.0 ~skew:1.0
  | "parser" -> steady_phases ~rb ~n_eips:760 ~ws:(mb 1) ~entropy:0.14 ~refs:350.0 ~skew:1.0
  | "eon" -> steady_phases ~rb ~n_eips:1100 ~ws:(kb 384) ~entropy:0.07 ~refs:320.0 ~skew:0.9
  | "perlbmk" -> steady_phases ~rb ~n_eips:1300 ~ws:(kb 896) ~entropy:0.1 ~refs:340.0 ~skew:0.9
  | "vortex" -> steady_phases ~rb ~n_eips:1500 ~ws:(kb 1280) ~entropy:0.09 ~refs:360.0 ~skew:0.9
  | "bzip2" -> steady_phases ~rb ~n_eips:380 ~ws:(kb 1280) ~entropy:0.09 ~refs:370.0 ~skew:1.2
  | "twolf" -> steady_phases ~rb ~n_eips:480 ~ws:(kb 640) ~entropy:0.12 ~refs:350.0 ~skew:1.1
  | "mesa" -> steady_phases ~rb ~n_eips:820 ~ws:(kb 512) ~entropy:0.04 ~refs:310.0 ~skew:1.0
  | "equake" -> steady_phases ~rb ~n_eips:300 ~ws:(kb 1280) ~entropy:0.04 ~refs:380.0 ~skew:1.3
  | "lucas" -> steady_phases ~rb ~n_eips:260 ~ws:(mb 1) ~entropy:0.02 ~refs:360.0 ~skew:1.3
  | "galgel" -> steady_phases ~rb ~n_eips:340 ~ws:(kb 768) ~entropy:0.02 ~refs:350.0 ~skew:1.3
  (* ---- Q-II ---- *)
  | "wupwise" -> loopnest_phases ~rb ~n_eips:280 ~ws_small:(kb 192) ~ws_big:(mb 6) ~gap_refs:220.0
  | "mgrid" -> loopnest_phases ~rb ~n_eips:220 ~ws_small:(kb 160) ~ws_big:(mb 8) ~gap_refs:240.0
  | "applu" -> loopnest_phases ~rb ~n_eips:320 ~ws_small:(kb 176) ~ws_big:(mb 7) ~gap_refs:230.0
  (* ---- Q-III ---- *)
  | "gcc" -> irregular_phases ~rb ~n_eips:2600 ~window:(mb 2) ~walk:12 ~entropy:0.3 ~refs:340.0 ~hot:0.955
  | "gap" -> irregular_phases ~rb ~n_eips:1400 ~window:(mb 2) ~walk:10 ~entropy:0.18 ~refs:360.0 ~hot:0.95
  | "ammp" -> irregular_phases ~rb ~n_eips:420 ~window:(mb 3) ~walk:8 ~entropy:0.08 ~refs:380.0 ~hot:0.94
  | "facerec" -> irregular_phases ~rb ~n_eips:380 ~window:(mb 2) ~walk:9 ~entropy:0.06 ~refs:360.0 ~hot:0.95
  | "apsi" -> irregular_phases ~rb ~n_eips:450 ~window:(mb 3) ~walk:7 ~entropy:0.05 ~refs:370.0 ~hot:0.94
  | "fma3d" -> irregular_phases ~rb ~n_eips:1900 ~window:(mb 2) ~walk:10 ~entropy:0.07 ~refs:350.0 ~hot:0.95
  | "sixtrack" -> irregular_phases ~rb ~n_eips:1100 ~window:(mb 2) ~walk:8 ~entropy:0.05 ~refs:340.0 ~hot:0.955
  (* ---- Q-IV ---- *)
  | "mcf" ->
      bimodal_phases ~rb ~n_eips:640 ~ws_heavy:(mb 48) ~pattern:Synth.Chase ~refs_heavy:380.0
        ~hot_heavy:0.93
  | "art" ->
      bimodal_phases ~rb ~n_eips:240 ~ws_heavy:(mb 16) ~pattern:Synth.Sequential
        ~refs_heavy:420.0 ~hot_heavy:0.55
  | "swim" ->
      bimodal_phases ~rb ~n_eips:200 ~ws_heavy:(mb 24) ~pattern:Synth.Sequential
        ~refs_heavy:440.0 ~hot_heavy:0.5
  | other -> invalid_arg ("Spec: unknown benchmark " ^ other)

let model ~seed name =
  let idx, _ = find name in
  let code = Code_map.create () in
  let space = Dbengine.Addr_space.create () in
  let rng = Rng.create (seed + (idx * 101)) in
  let phases = phases_of idx name in
  let thread = Synth.thread rng ~code ~space ~phases ~tid:0 in
  (* SPEC programs are single-threaded and nearly OS-free: ~25 context
     switches/s (Section 5.2). *)
  Model.make ~name ~code ~threads:[| thread |] ~switch_period:18_000_000 ~os_per_switch:2_500
    ~os_per_io:0 ~pollute_on_switch:0.2 ()
