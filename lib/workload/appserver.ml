module Rng = Stats.Rng

type params = {
  threads : int;
  handler_regions : int;
  eips_per_region : int;
  session_bytes : int;
  oldgen_bytes : int;
}

let default_params =
  {
    threads = 8;
    handler_regions = 9;
    eips_per_region = 3400;
    session_bytes = 32 lsl 20;
    oldgen_bytes = 48 lsl 20;
  }

let region_base = 2300

let model ?(params = default_params) ?(name = "sjas") ?addr_base ~seed () =
  let code = Code_map.create () in
  let space = Dbengine.Addr_space.create ?base:addr_base () in
  let rng = Rng.create seed in
  (* Request-handler phases: one per JIT-compiled handler region, each a
     few quanta long, with session-locality drift shared via the rate
     walk.  GC interleaves as a short chase burst over the old
     generation. *)
  let handler i =
    Synth.phase
      ~label:(Printf.sprintf "handler%d" i)
      ~region:(region_base + i) ~n_eips:params.eips_per_region ~eip_skew:0.8
      ~work_bytes:params.session_bytes ~pattern:Synth.Random ~refs_per_kinstr:300.0
      ~hot_frac:0.965 ~branches_per_kinstr:140.0 ~branch_entropy:0.12
      ~duration_quanta:(2, 6)
      ~rate_mod:(Synth.Walk { step = 0.035; lo = 0.8; hi = 1.25 })
      ()
  in
  let gc =
    Synth.phase ~label:"gc" ~region:(region_base + params.handler_regions)
      ~n_eips:2400 ~eip_skew:1.0 ~work_bytes:params.oldgen_bytes ~pattern:Synth.Chase
      ~refs_per_kinstr:420.0 ~hot_frac:0.94 ~branches_per_kinstr:90.0
      ~branch_entropy:0.1 ~duration_quanta:(3, 9) ()
  in
  let phases =
    Array.append (Array.init params.handler_regions handler) [| gc |]
  in
  let threads =
    Array.init params.threads (fun tid -> Synth.thread rng ~code ~space ~phases ~tid)
  in
  Model.make ~name ~code ~threads
    ~switch_period:90_000 (* ~5000 switches/s *)
    ~os_per_switch:6_000 ~os_per_io:4_000 ~pollute_on_switch:0.3 ()
