module Rng = Stats.Rng

type scenario = { manifest : Manifest.t; quick : bool }

(* Zoo synth scenarios own region ids 4000+ (Spec stops at ~3208, the
   server families below 2400), so any scenario pair can be merged. *)
let synth_region_base = 4000

let machines = [ "itanium2"; "pentium4"; "xeon" ]

let machine m =
  match List.find_opt (fun c -> c.March.Config.name = m.Manifest.machine) March.Config.all with
  | Some c -> Ok c
  | None -> Error (Printf.sprintf "manifest %S: unknown machine %S" m.Manifest.name m.Manifest.machine)

(* ------------------------------------------------------------------ *)
(* Family: synth — parametric phase machines sweeping working-set size, *)
(* access pattern and drift schedule.                                   *)

let synth_ws = [ "l1"; "l2"; "l3"; "mem" ]
let synth_pat = [ "seq"; "rand"; "chase" ]
let synth_drift = [ "steady"; "ratewalk"; "grow"; "phases"; "loopnest" ]

let ws_bytes = function
  | "l1" -> Ok (16 lsl 10)  (* resident in every L1d *)
  | "l2" -> Ok (512 lsl 10)  (* L2-sized: resident on P4/Xeon L2 only *)
  | "l3" -> Ok (6 lsl 20)  (* larger than every L2, inside Itanium2 L3 at quick scale *)
  | "mem" -> Ok (96 lsl 20)  (* far beyond every L3 at every scale *)
  | w -> Error (Printf.sprintf "unknown working-set tier %S" w)

let synth_pattern = function
  | "seq" -> Ok Workload.Synth.Sequential
  | "rand" -> Ok Workload.Synth.Random
  | "chase" -> Ok Workload.Synth.Chase
  | p -> Error (Printf.sprintf "unknown access pattern %S" p)

let scaled_bytes bytes scale = max 4096 (int_of_float (float_of_int bytes *. scale))

let build_synth m ~seed ~scale =
  let req key =
    match Manifest.param m key with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "manifest %S: missing param %S" m.Manifest.name key)
  in
  match (req "ws", req "pat", req "drift") with
  | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
  | Ok ws, Ok pat, Ok drift -> (
      match (ws_bytes ws, synth_pattern pat) with
      | Error e, _ | _, Error e -> Error e
      | Ok bytes, Ok pattern -> (
          let work_bytes = scaled_bytes bytes scale in
          (* Durations matter as much as footprints: phases must span
             several EIPV intervals for the tree to attribute CPI to code
             (the designed SPEC models use the same 50-700 quanta range),
             else every interval mixes phases and RE saturates near 1. *)
          let main ?(rate_mod = Workload.Synth.Steady) ?(work_walk = 0)
              ?(duration_quanta = (50, 200)) () =
            Workload.Synth.phase ~label:"main" ~region:synth_region_base ~n_eips:900
              ~work_bytes ~pattern ~duration_quanta ~rate_mod ~work_walk ()
          in
          let phases =
            match drift with
            | "steady" ->
                (* One dominant phase, gently rate-walked: low CPI variance
                   under code the EIPV cannot subdivide (Q-I material). *)
                Ok [| main ~rate_mod:(Workload.Synth.Walk { step = 0.03; lo = 0.9; hi = 1.1 }) () |]
            | "ratewalk" ->
                (* CPI drifts hard under constant code: Q-III material. *)
                Ok [| main ~rate_mod:(Workload.Synth.Walk { step = 0.08; lo = 0.55; hi = 1.8 }) () |]
            | "grow" ->
                (* The working-set window slides through a 6x footprint,
                   so cache residency decays mid-run under constant code. *)
                Ok [| main ~work_walk:6 () |]
            | "phases" ->
                (* Mid-run phase changes: the main phase alternates with a
                   cache-resident compute loop of distinct code.  Long
                   durations make each phase code-attributable, so the CPI
                   gap decides the quadrant: cache-resident tiers give a
                   small gap (Q-II), memory-bound tiers a large one (Q-IV). *)
                Ok
                  [|
                    main ~duration_quanta:(250, 550) ();
                    Workload.Synth.phase ~label:"compute" ~region:(synth_region_base + 1)
                      ~n_eips:400 ~eip_skew:1.2 ~work_bytes:(48 lsl 10)
                      ~pattern:Workload.Synth.Random ~refs_per_kinstr:300.0 ~hot_frac:0.97
                      ~branches_per_kinstr:110.0 ~branch_entropy:0.03
                      ~duration_quanta:(250, 550) ();
                  |]
            | "loopnest" ->
                (* Two alternating loop nests with a small CPI gap (the
                   catalog's Q-II shape): a resident nest over the tier's
                   footprint and a prefetch-friendly streaming nest of
                   distinct code. *)
                Ok
                  [|
                    Workload.Synth.phase ~label:"resident" ~region:synth_region_base
                      ~n_eips:900 ~eip_skew:1.2 ~work_bytes ~pattern
                      ~refs_per_kinstr:330.0 ~hot_frac:0.96 ~branches_per_kinstr:90.0
                      ~branch_entropy:0.02 ~duration_quanta:(250, 550) ();
                    Workload.Synth.phase ~label:"stream" ~region:(synth_region_base + 1)
                      ~n_eips:450 ~eip_skew:1.2 ~work_bytes:(scaled_bytes (6 lsl 20) scale)
                      ~pattern:Workload.Synth.Sequential ~refs_per_kinstr:230.0
                      ~hot_frac:0.915 ~branches_per_kinstr:70.0 ~branch_entropy:0.02
                      ~duration_quanta:(250, 550) ();
                  |]
            | d -> Error (Printf.sprintf "unknown drift schedule %S" d)
          in
          match phases with
          | Error e -> Error e
          | Ok phases ->
              let code = Workload.Code_map.create () in
              let space = Dbengine.Addr_space.create () in
              let rng = Rng.split_label seed (m.Manifest.name ^ "#gen") in
              let threads = [| Workload.Synth.thread rng ~code ~space ~phases ~tid:0 |] in
              Ok (Workload.Model.make ~name:m.Manifest.name ~code ~threads ())))

(* ------------------------------------------------------------------ *)
(* Family: oltp — ODB-C sweeps (threads x buffer pool x key skew).      *)

let oltp_threads = [ 4; 16 ]
let oltp_buf = [ 2_000; 12_000 ]
let oltp_skew = [ "uniform"; "zipf" ]

let build_oltp m ~seed ~scale =
  match (Manifest.int_param m "threads", Manifest.int_param m "buf", Manifest.param m "skew") with
  | Error e, _, _ | _, Error e, _ -> Error e
  | _, _, None -> Error (Printf.sprintf "manifest %S: missing param \"skew\"" m.Manifest.name)
  | Ok threads, Ok buf_pages, Some skew -> (
      match skew with
      | "uniform" | "zipf" ->
          let key_skew = if skew = "zipf" then 0.8 else 0.0 in
          let params =
            { Workload.Oltp.default_params with scale; threads; buf_pages; key_skew }
          in
          Ok (Workload.Oltp.model ~params ~name:m.Manifest.name ~seed ())
      | s -> Error (Printf.sprintf "unknown key skew %S" s))

(* ------------------------------------------------------------------ *)
(* Family: dss — all 22 ODB-H query plans x thread counts.              *)

let dss_threads = [ 1; 2 ]

let build_dss m ~seed ~scale =
  match (Manifest.int_param m "query", Manifest.int_param m "threads") with
  | Error e, _ | _, Error e -> Error e
  | Ok query, Ok threads ->
      if query < 1 || query > Dbengine.Tpch.n_queries then
        Error (Printf.sprintf "manifest %S: query %d out of 1..22" m.Manifest.name query)
      else
        let params = { Workload.Dss.default_params with scale; threads } in
        Ok (Workload.Dss.model ~params ~name:m.Manifest.name ~seed ~query ())

(* ------------------------------------------------------------------ *)
(* Family: appserver — SjAS heap/footprint sweeps.                      *)

let appserver_session_mb = [ 8; 64 ]
let appserver_oldgen_mb = [ 12; 96 ]
let appserver_regions = [ 4; 24 ]

let build_appserver m ~seed ~scale =
  match
    ( Manifest.int_param m "session_mb",
      Manifest.int_param m "oldgen_mb",
      Manifest.int_param m "regions" )
  with
  | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
  | Ok session_mb, Ok oldgen_mb, Ok handler_regions ->
      if session_mb <= 0 || oldgen_mb <= 0 || handler_regions <= 0 then
        Error (Printf.sprintf "manifest %S: appserver params must be positive" m.Manifest.name)
      else
        let params =
          {
            Workload.Appserver.default_params with
            handler_regions;
            session_bytes = scaled_bytes (session_mb lsl 20) scale;
            oldgen_bytes = scaled_bytes (oldgen_mb lsl 20) scale;
          }
        in
        Ok (Workload.Appserver.model ~params ~name:m.Manifest.name ~seed ())

(* ------------------------------------------------------------------ *)
(* Family: tenant — multi-tenant interleavings: two server workloads'   *)
(* threads over one merged code map, disjoint address ranges, shared    *)
(* caches.                                                              *)

(* Tenant component ids: "oltp", "sjas", or "q<N>".  Components are
   built exactly like their catalog counterparts (same seed derivation),
   the second in a relocated address range. *)
let tenant_component comp ~seed ~scale ~addr_base =
  match comp with
  | "oltp" ->
      let params = { Workload.Oltp.default_params with scale } in
      Ok (Workload.Oltp.model ~params ?addr_base ~seed ())
  | "sjas" ->
      let params =
        {
          Workload.Appserver.default_params with
          session_bytes =
            scaled_bytes Workload.Appserver.default_params.Workload.Appserver.session_bytes scale;
          oldgen_bytes =
            scaled_bytes Workload.Appserver.default_params.Workload.Appserver.oldgen_bytes scale;
        }
      in
      Ok (Workload.Appserver.model ~params ?addr_base ~seed ())
  | _ when String.length comp > 1 && comp.[0] = 'q' -> (
      match int_of_string_opt (String.sub comp 1 (String.length comp - 1)) with
      | Some q when q >= 1 && q <= Dbengine.Tpch.n_queries ->
          let params = { Workload.Dss.default_params with scale } in
          Ok (Workload.Dss.model ~params ?addr_base ~seed ~query:q ())
      | Some _ | None -> Error (Printf.sprintf "unknown tenant component %S" comp))
  | _ -> Error (Printf.sprintf "unknown tenant component %S" comp)

(* The second tenant's heap starts 256 MB above the first's default
   base, far past anything the first allocates and well below the code
   address space at 0x4000_0000. *)
let tenant_b_base = 0x2000_0000

let build_tenant m ~seed ~scale =
  match (Manifest.param m "a", Manifest.param m "b") with
  | None, _ | _, None ->
      Error (Printf.sprintf "manifest %S: tenant needs params \"a\" and \"b\"" m.Manifest.name)
  | Some a, Some b -> (
      match
        ( tenant_component a ~seed ~scale ~addr_base:None,
          tenant_component b ~seed ~scale ~addr_base:(Some tenant_b_base) )
      with
      | Error e, _ | _, Error e -> Error e
      | Ok ma, Ok mb ->
          let code =
            Workload.Code_map.union ~shared:[ Workload.Model.os_region_id ]
              ma.Workload.Model.code mb.Workload.Model.code
          in
          let threads =
            Array.mapi
              (fun i t -> { t with Workload.Model.tid = i })
              (Array.append ma.Workload.Model.threads mb.Workload.Model.threads)
          in
          (* The merged workload inherits the more OS-intensive side of
             each scheduling knob: tenants share one kernel. *)
          Ok
            (Workload.Model.make ~name:m.Manifest.name ~code ~threads
               ~switch_period:
                 (min ma.Workload.Model.switch_period mb.Workload.Model.switch_period)
               ~os_per_switch:
                 (max ma.Workload.Model.os_per_switch mb.Workload.Model.os_per_switch)
               ~os_per_io:(max ma.Workload.Model.os_per_io mb.Workload.Model.os_per_io)
               ~pollute_on_switch:
                 (Float.max ma.Workload.Model.pollute_on_switch
                    mb.Workload.Model.pollute_on_switch)
               ()))

(* ------------------------------------------------------------------ *)
(* Dispatch.                                                            *)

let build m =
  match m.Manifest.family with
  | "synth" -> Ok (fun ~seed ~scale -> build_synth m ~seed ~scale)
  | "oltp" -> Ok (fun ~seed ~scale -> build_oltp m ~seed ~scale)
  | "dss" -> Ok (fun ~seed ~scale -> build_dss m ~seed ~scale)
  | "appserver" -> Ok (fun ~seed ~scale -> build_appserver m ~seed ~scale)
  | "tenant" -> Ok (fun ~seed ~scale -> build_tenant m ~seed ~scale)
  | f -> Error (Printf.sprintf "manifest %S: unknown family %S" m.Manifest.name f)

let model m ~seed ~scale =
  match build m with Ok f -> f ~seed ~scale | Error _ as e -> e

(* ------------------------------------------------------------------ *)
(* The generated population.                                            *)

(* The --quick representative subset: every family, every machine, every
   drift schedule and both quadrant-threshold sides appear; small enough
   that the golden atlas runs in CI at jobs 1 and 4. *)
let quick_names =
  [
    "synth-itanium2-l1-seq-steady";
    "synth-itanium2-l2-seq-phases";
    "synth-itanium2-l2-rand-loopnest";
    "synth-itanium2-l3-rand-ratewalk";
    "synth-itanium2-mem-chase-steady";
    "synth-itanium2-mem-rand-loopnest";
    "synth-itanium2-mem-seq-grow";
    "synth-pentium4-l3-chase-phases";
    "synth-pentium4-l3-rand-steady";
    "synth-xeon-l1-rand-loopnest";
    "synth-xeon-mem-chase-grow";
    "oltp-itanium2-t16-b2000-zipf";
    "oltp-itanium2-t4-b12000-uniform";
    "oltp-pentium4-t16-b2000-uniform";
    "dss-itanium2-q1-t1";
    "dss-itanium2-q13-t1";
    "dss-itanium2-q18-t1";
    "dss-itanium2-q5-t2";
    "appserver-itanium2-s8-o96-r24";
    "appserver-itanium2-s64-o12-r4";
    "appserver-xeon-s8-o12-r4";
    "tenant-itanium2-oltp-q13";
    "tenant-itanium2-sjas-q18";
    "tenant-xeon-oltp-q13";
  ]

(* Every generated manifest is built through Manifest.make, which cannot
   fail on the fixed grids below; a grid typo is a programming error, so
   surface it loudly. *)
let manifest ~name ~family ~machine ~params =
  match Manifest.make ~name ~family ~machine ~params with
  | Ok m -> m
  | Error e -> invalid_arg ("Zoo.generate: " ^ e)

let generate () =
  let synth =
    List.concat_map
      (fun mach ->
        List.concat_map
          (fun ws ->
            List.concat_map
              (fun pat ->
                List.map
                  (fun drift ->
                    manifest
                      ~name:(Printf.sprintf "synth-%s-%s-%s-%s" mach ws pat drift)
                      ~family:"synth" ~machine:mach
                      ~params:[ ("ws", ws); ("pat", pat); ("drift", drift) ])
                  synth_drift)
              synth_pat)
          synth_ws)
      machines
  in
  let oltp =
    List.concat_map
      (fun mach ->
        List.concat_map
          (fun threads ->
            List.concat_map
              (fun buf ->
                List.map
                  (fun skew ->
                    manifest
                      ~name:(Printf.sprintf "oltp-%s-t%d-b%d-%s" mach threads buf skew)
                      ~family:"oltp" ~machine:mach
                      ~params:
                        [
                          ("threads", string_of_int threads);
                          ("buf", string_of_int buf);
                          ("skew", skew);
                        ])
                  oltp_skew)
              oltp_buf)
          oltp_threads)
      machines
  in
  let dss =
    List.concat_map
      (fun q ->
        List.map
          (fun threads ->
            manifest
              ~name:(Printf.sprintf "dss-itanium2-q%d-t%d" q threads)
              ~family:"dss" ~machine:"itanium2"
              ~params:[ ("query", string_of_int q); ("threads", string_of_int threads) ])
          dss_threads)
      (List.init Dbengine.Tpch.n_queries (fun i -> i + 1))
  in
  let appserver =
    List.concat_map
      (fun mach ->
        List.concat_map
          (fun s ->
            List.concat_map
              (fun o ->
                List.map
                  (fun r ->
                    manifest
                      ~name:(Printf.sprintf "appserver-%s-s%d-o%d-r%d" mach s o r)
                      ~family:"appserver" ~machine:mach
                      ~params:
                        [
                          ("session_mb", string_of_int s);
                          ("oldgen_mb", string_of_int o);
                          ("regions", string_of_int r);
                        ])
                  appserver_regions)
              appserver_oldgen_mb)
          appserver_session_mb)
      [ "itanium2"; "xeon" ]
  in
  let tenant =
    let pair mach a b =
      manifest
        ~name:(Printf.sprintf "tenant-%s-%s-%s" mach a b)
        ~family:"tenant" ~machine:mach
        ~params:[ ("a", a); ("b", b) ]
    in
    [
      pair "itanium2" "oltp" "q1";
      pair "itanium2" "oltp" "q5";
      pair "itanium2" "oltp" "q13";
      pair "itanium2" "oltp" "q18";
      pair "itanium2" "oltp" "sjas";
      pair "itanium2" "sjas" "q18";
      pair "itanium2" "q1" "q18";
      pair "itanium2" "q13" "q5";
      pair "xeon" "oltp" "q13";
      pair "xeon" "sjas" "q18";
    ]
  in
  let all = List.concat [ synth; oltp; dss; appserver; tenant ] in
  let all =
    List.sort (fun a b -> String.compare a.Manifest.name b.Manifest.name) all
  in
  List.map (fun m -> { manifest = m; quick = List.mem m.Manifest.name quick_names }) all

let all = generate

let quick () = List.filter (fun s -> s.quick) (all ())
