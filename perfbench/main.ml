(* perfbench: the repository benchmark.

   Usage (from the root of a checkout, after building):
     perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
               [--size quick|tiny] [--repro PATH]

   One run sets a workload up (several times, reporting the median
   set-up time), runs its timed operation until [--seconds] have passed
   (by default the run_seconds of BENCHMARK.json),
   checks every answer, and prints a context line followed by one JSON
   result line: end-to-end metrics with [--trace 0], per-layer metrics
   (from spans the benchmark records around its own calls into each
   layer) with [--trace 1].  perfbench/README.md documents the workloads,
   the metrics and which layer each metric belongs to. *)

open Perfbench_kit

let now = Unix.gettimeofday
let ms s = 1000.0 *. s

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)

type size = Quick | Tiny

type args = {
  workload : string;
  seed : int;
  seconds : float option;
  trace : bool;
  size : size;
  repro : string option;
}

let usage =
  "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--size \
   quick|tiny] [--repro PATH]"

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      exit 2)
    fmt

let parse_args argv =
  let a =
    ref { workload = ""; seed = 42; seconds = None; trace = false; size = Quick; repro = None }
  in
  let int_arg flag v =
    match int_of_string_opt v with Some n -> n | None -> die "%s expects an integer" flag
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        a := { !a with workload = v };
        go rest
    | "--seed" :: v :: rest ->
        a := { !a with seed = int_arg "--seed" v };
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 -> a := { !a with seconds = Some s }
        | _ -> die "--seconds expects a positive number");
        go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> a := { !a with trace = false }
        | "1" -> a := { !a with trace = true }
        | _ -> die "--trace expects 0 or 1");
        go rest
    | "--size" :: v :: rest ->
        (match v with
        | "quick" -> a := { !a with size = Quick }
        | "tiny" -> a := { !a with size = Tiny }
        | _ -> die "--size expects quick or tiny");
        go rest
    | "--repro" :: v :: rest ->
        a := { !a with repro = Some v };
        go rest
    | x :: _ -> die "unexpected argument %S\n%s" x usage
  in
  go (List.tl (Array.to_list argv));
  if !a.workload = "" then die "%s" usage;
  !a

(* ------------------------------------------------------------------ *)
(* Files and processes                                                  *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* Peak resident set of a process, from /proc/<pid>/status (VmHWM, kB). *)
let peak_rss_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  let line =
    List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' (read_file path))
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* Every child still running; killed and reaped on any exit path. *)
let children : int list ref = ref []

let spawn prog argv ~log =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process prog (Array.of_list (prog :: argv)) devnull out out in
  Unix.close out;
  Unix.close devnull;
  children := pid :: !children;
  pid

let reap pid =
  let _, status = Unix.waitpid [] pid in
  children := List.filter (( <> ) pid) !children;
  status

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error (_, _, _) -> ())
    !children;
  children := []

let run_to_completion prog argv ~log =
  match reap (spawn prog argv ~log) with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "%s %s failed (see %s)" prog (String.concat " " argv) log)

(* The run length BENCHMARK.json declares, the default of [--seconds]. *)
let run_seconds root =
  let json = read_file (Filename.concat root "BENCHMARK.json") in
  let key = "\"run_seconds\":" in
  let rec find i =
    if i + String.length key > String.length json then die "BENCHMARK.json has no run_seconds"
    else if String.sub json i (String.length key) = key then i + String.length key
    else find (i + 1)
  in
  let at = find 0 in
  Scanf.sscanf (String.sub json at (String.length json - at)) " %d" float_of_int

(* ------------------------------------------------------------------ *)
(* Run environment                                                      *)

type env = {
  args : args;
  config : Fuzzy.Analysis.config;
  root : string;  (** checkout root, absolute *)
  seconds : float;  (** length of the timed phase *)
  repro : string;  (** absolute path of bin/repro.exe *)
  rec_ : Kit.Span.recorder;
  mutable tracing : bool;
  counts : (int * string, float) Hashtbl.t;  (** (op id, counter) -> total *)
}

let span env name f = if env.tracing then Kit.Span.with_span env.rec_ name f else f ()

let count env name v =
  if env.tracing then
    match Kit.Span.current_op env.rec_ with
    | None -> ()
    | Some op ->
        let prev = Option.value (Hashtbl.find_opt env.counts (op, name)) ~default:0.0 in
        Hashtbl.replace env.counts (op, name) (prev +. v)

(* Minor-heap words [f] allocates, added to counter [name]. *)
let counting_words env name f =
  let w0 = Gc.minor_words () in
  let r = f () in
  count env name (Gc.minor_words () -. w0);
  r

let config_of ~seed = function
  | Quick -> { Fuzzy.Analysis.quick with seed; jobs = 1 }
  | Tiny ->
      { Fuzzy.Analysis.quick with seed; jobs = 1; intervals = 8; samples_per_interval = 10; scale = 0.05 }

(* [env.config] as repro command-line flags: --quick sets the fields
   repro has no flag for (period, kmax, folds). *)
let config_flags env =
  let c = env.config in
  [
    "--quick";
    "--machine";
    c.Fuzzy.Analysis.machine.March.Config.name;
    "--seed";
    string_of_int c.Fuzzy.Analysis.seed;
    "--jobs";
    string_of_int c.Fuzzy.Analysis.jobs;
    "--intervals";
    string_of_int c.Fuzzy.Analysis.intervals;
    "--samples-per-interval";
    string_of_int c.Fuzzy.Analysis.samples_per_interval;
    "--scale";
    Printf.sprintf "%.17g" c.Fuzzy.Analysis.scale;
  ]

(* Reference answers: the gzip/itanium2 golden, and MD5 digests of the
   other reports at seed 42 and the quick geometry. *)
let references env =
  if env.args.seed <> 42 || env.args.size <> Quick then None
  else
    let digests =
      read_file (Filename.concat env.root "perfbench/reference/seed42.digests")
      |> String.split_on_char '\n'
      |> List.filter_map (fun l ->
             match String.split_on_char ' ' (String.trim l) with
             | [ machine; name; md5 ] -> Some ((machine, name), md5)
             | _ -> None)
    in
    let golden = read_file (Filename.concat env.root "test/golden/analyze-gzip-quick.out") in
    Some
      (fun ~machine ~name report ->
        if machine = "itanium2" && name = "gzip" then String.equal report golden
        else
          match List.assoc_opt (machine, name) digests with
          | Some md5 -> String.equal md5 (Digest.to_hex (Digest.string report))
          | None -> false)

let check_reference refs ~machine ~name report =
  match refs with
  | None -> true
  | Some ok ->
      ok ~machine ~name report
      ||
      (Printf.eprintf "perfbench: %s/%s report differs from the seed-42 reference\n%!"
         machine name;
       false)

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)

type instance = {
  units_per_op : float;  (** analyses, replays, restarts or requests *)
  run_op : unit -> float * (unit -> bool);
      (** One timed operation: its duration in seconds and a check run
          after the clock stops. *)
  finish : (unit -> bool) option;  (** an end-of-run check, counted as one more operation *)
  rss_mb : unit -> float;  (** peak RSS of the process doing the timed work *)
  layer_extra : unit -> (string * float) list;  (** per-layer values not taken from spans *)
}

type spec = {
  why : string;
  setup_reps : int;
  setup : unit -> unit;  (** idempotent; repeated [setup_reps] times *)
  start : unit -> instance;  (** untimed: warm-up, then the timed interface *)
}

let curves_equal (a : Rtree.Cv.curve) (b : Rtree.Cv.curve) =
  let bits = Array.map Int64.bits_of_float in
  a.Rtree.Cv.k_values = b.Rtree.Cv.k_values
  && bits a.Rtree.Cv.e = bits b.Rtree.Cv.e
  && bits a.Rtree.Cv.re = bits b.Rtree.Cv.re
  && Int64.equal
       (Int64.bits_of_float a.Rtree.Cv.variance)
       (Int64.bits_of_float b.Rtree.Cv.variance)

let cv env ~rng_seed eipv =
  let c = env.config in
  Rtree.Cv.relative_error_curve ~pool:(Fuzzy.Analysis.pool c) ~folds:c.Fuzzy.Analysis.folds
    ~kmax:c.Fuzzy.Analysis.kmax (Stats.Rng.create rng_seed) (Sampling.Eipv.dataset eipv)

(* Untimed: re-render each report from the entry the pass persisted —
   the store's read path must give the computed bytes back. *)
let reload_report ~dir cfg name =
  let cas = Store.Cas.open_dir ~dir in
  match Store.Cas.find cas ~key:(Store.Codec.canonical_key cfg name) with
  | None -> None
  | Some payload -> (
      match Store.Codec.decode_entry payload with
      | Error _ -> None
      | Ok (run, curve) ->
          Some (Fuzzy.Report.analyze_report (Fuzzy.Analysis.of_parts cfg ~name ~run ~curve)))

(* cold_analyze: one operation is a pass of six cold analyses on the
   `repro analyze` path with a fresh store attached. *)
let cold_analyze env =
  let entries =
    List.map
      (fun (machine, name) ->
        (machine, name, { env.config with Fuzzy.Analysis.machine = March.Config.by_name machine }))
      [
        ("itanium2", "odb_c");
        ("itanium2", "mgrid");
        ("itanium2", "odb_h_q18");
        ("itanium2", "odb_h_q13");
        ("itanium2", "gzip");
        ("pentium4", "gzip");
      ]
  in
  let refs = ref None in
  let setup () =
    refs := references env;
    (* Lets lazy initialisation finish: one cold analysis of the cheapest
       workload, outside the memo cache. *)
    ignore (Fuzzy.Analysis.analyze env.config "mgrid")
  in
  let start () =
    let first = ref None and pass = ref 0 in
    let untraced dir =
      Fuzzy.Experiments.clear_cache ();
      Store.Result_cache.attach ~dir;
      let reports =
        List.map
          (fun (_, name, cfg) ->
            Fuzzy.Report.analyze_report (Fuzzy.Experiments.analyze_cached cfg name))
          entries
      in
      Store.Result_cache.detach ();
      reports
    in
    (* Analysis.analyze_model re-composed from its public parts, plus the
       store probe and persist Experiments.analyze_cached performs. *)
    let traced dir =
      let cas = Store.Cas.open_dir ~dir in
      let reports =
        List.map
          (fun (_, name, cfg) ->
            let model =
              span env "workload.build" (fun () ->
                  (Workload.Catalog.find name).Workload.Catalog.build ~seed:cfg.Fuzzy.Analysis.seed
                    ~scale:cfg.Fuzzy.Analysis.scale)
            in
            let key = Store.Codec.canonical_key cfg name in
            let probe = span env "store.find" (fun () -> Store.Cas.find cas ~key) in
            assert (probe = None);
            let run =
              span env "sampling.driver_run" (fun () ->
                  counting_words env "driver_words" (fun () ->
                      Sampling.Driver.run ~period:cfg.Fuzzy.Analysis.period model
                        ~cpu:(March.Cpu.create cfg.Fuzzy.Analysis.machine)
                        ~rng:(Stats.Rng.split_label cfg.Fuzzy.Analysis.seed name)
                        ~samples:(cfg.Fuzzy.Analysis.intervals * cfg.Fuzzy.Analysis.samples_per_interval)))
            in
            count env "instrs" (float_of_int run.Sampling.Driver.total_instrs);
            let eipv =
              span env "sampling.eipv_build" (fun () ->
                  Sampling.Eipv.build run ~samples_per_interval:cfg.Fuzzy.Analysis.samples_per_interval)
            in
            let curve =
              span env "rtree.cv" (fun () ->
                  counting_words env "cv_words" (fun () ->
                      cv env ~rng_seed:(cfg.Fuzzy.Analysis.seed + 1) eipv))
            in
            let a = span env "core.of_parts" (fun () -> Fuzzy.Analysis.of_parts cfg ~name ~run ~curve) in
            let payload = span env "store.encode" (fun () -> Store.Codec.encode_entry a) in
            count env "entry_bytes" (float_of_int (String.length payload));
            span env "store.put" (fun () -> Store.Cas.put cas ~key payload);
            span env "core.report" (fun () -> Fuzzy.Report.analyze_report a))
          entries
      in
      let c = Store.Cas.counters cas in
      count env "store.hits" (float_of_int c.Store.Cas.hits);
      count env "store.misses" (float_of_int c.Store.Cas.misses);
      count env "store.writes" (float_of_int c.Store.Cas.writes);
      reports
    in
    let run_op () =
      incr pass;
      let dir = Printf.sprintf "store-%d" !pass in
      let t0 = now () in
      let reports = if env.tracing then traced dir else untraced dir in
      let d = now () -. t0 in
      let check () =
        let ok =
          List.for_all2
            (fun (machine, name, cfg) report ->
              check_reference !refs ~machine ~name report
              && reload_report ~dir cfg name = Some report)
            entries reports
          && (match !first with
             | None ->
                 first := Some reports;
                 true
             | Some r -> r = reports)
        in
        rm_rf dir;
        ok
      in
      (d, check)
    in
    {
      units_per_op = float_of_int (List.length entries);
      run_op;
      finish = None;
      rss_mb = (fun () -> peak_rss_mb 0);
      layer_extra = (fun () -> []);
    }
  in
  {
    why =
      "cold analyze passes (5 workloads on itanium2, gzip on pentium4) with a fresh \
       store: simulation in lib/march dominates; also the store write side";
    setup_reps = 5;
    setup;
    start;
  }

(* trace_replay: re-analyse two saved traces at three interval sizes and
   stream each through the online pipeline. *)
let trace_replay env =
  let names = [ "mgrid"; "odb_h_q13" ] in
  let spi = env.config.Fuzzy.Analysis.samples_per_interval in
  let divisors = [ 1; 2; 10 ] in
  let runs = ref [] in
  let setup () =
    runs :=
      List.map
        (fun name ->
          let c = env.config in
          let model =
            (Workload.Catalog.find name).Workload.Catalog.build ~seed:c.Fuzzy.Analysis.seed
              ~scale:c.Fuzzy.Analysis.scale
          in
          let run =
            Sampling.Driver.run ~period:c.Fuzzy.Analysis.period model
              ~cpu:(March.Cpu.create c.Fuzzy.Analysis.machine)
              ~rng:(Stats.Rng.split_label c.Fuzzy.Analysis.seed name)
              ~samples:(c.Fuzzy.Analysis.intervals * spi)
          in
          let path = name ^ ".trace" in
          Sampling.Trace_io.save run ~path;
          (name, path, run))
        names
  in
  let start () =
    let refs = references env in
    (* The report each run renders before it is saved; computing it is
       also the workload's warm-up. *)
    let before =
      List.map
        (fun (name, _, run) ->
          let eipv = Sampling.Eipv.build run ~samples_per_interval:spi in
          let report = Fuzzy.Report.analyze_report (Fuzzy.Analysis.of_intervals env.config ~name ~run eipv) in
          (name, (report, check_reference refs ~machine:"itanium2" ~name report)))
        !runs
    in
    let pipeline = { Online.Pipeline.quick with Online.Pipeline.analysis = env.config } in
    let replay (name, path, _) =
      let run = span env "sampling.trace_load" (fun () -> Sampling.Trace_io.load ~path) in
      let curves =
        List.map
          (fun div ->
            let eipv =
              span env "sampling.eipv_build" (fun () ->
                  Sampling.Eipv.build run ~samples_per_interval:(max 2 (spi / div)))
            in
            span env (Printf.sprintf "rtree.cv.div%d" div) (fun () ->
                counting_words env "cv_words" (fun () ->
                    cv env ~rng_seed:(env.config.Fuzzy.Analysis.seed + 1) eipv)))
          divisors
      in
      let curve = List.hd curves in
      let a =
        span env "core.of_parts" (fun () -> Fuzzy.Analysis.of_parts env.config ~name ~run ~curve)
      in
      let report = span env "core.report" (fun () -> Fuzzy.Report.analyze_report a) in
      let p = Online.Pipeline.create ~name pipeline in
      span env "online.feed" (fun () ->
          Array.iter (fun s -> ignore (Online.Pipeline.feed p s)) run.Sampling.Driver.samples);
      let final = span env "online.finalize" (fun () -> Online.Pipeline.finalize p) in
      count env "refits" (float_of_int final.Online.Pipeline.refits);
      count env "drift_events" (float_of_int final.Online.Pipeline.drift_events);
      (name, a, report, final, curve)
    in
    let run_op () =
      let t0 = now () in
      let results = List.map replay !runs in
      let d = now () -. t0 in
      let check () =
        List.for_all
          (fun (name, a, report, (final : Online.Pipeline.final), curve) ->
            let before_report, before_ok = List.assoc name before in
            before_ok && String.equal report before_report && final.Online.Pipeline.exact
            && curves_equal final.Online.Pipeline.curve curve
            && final.Online.Pipeline.quadrant = a.Fuzzy.Analysis.quadrant)
          results
      in
      (d, check)
    in
    {
      units_per_op = 1.0;
      run_op;
      finish = None;
      rss_mb = (fun () -> peak_rss_mb 0);
      layer_extra = (fun () -> []);
    }
  in
  {
    why =
      "re-analyses two saved traces at 1, 1/2 and 1/10 of the interval and streams \
       them online: CV and refits dominate, no simulation";
    setup_reps = 3;
    setup;
    start;
  }

(* ---- the serving workload ---- *)

let serve_names = [ "mgrid"; "swim"; "twolf"; "wupwise"; "applu"; "odb_h_q11" ]
let socket = "serve.sock"

(* A six-entry store and the response bytes the server must send for
   every (verb, workload), computed in-process from that store. *)
type served = { expected : (Serve.Protocol.request * string) list; reference_ok : bool }

(* The benchmark's own replay of the loop in Store.Result_cache.warm:
   Cas.fold for the keys, then per entry Cas.find, Codec.decode_entry
   and Analysis.of_parts.  Run in traced set-ups only, it splits the
   loop's cost into store.fold_ms, store.find_ms, store.decode_ms and
   core.of_parts_ms.  store.warm_ms times warm itself, so a change to
   warm shows there and not here. *)
let replay_warm env =
  let cas = Store.Cas.open_dir ~dir:"store" in
  let keys =
    span env "store.fold" (fun () ->
        List.rev (Store.Cas.fold cas ~init:[] ~f:(fun acc ~key ~payload:_ -> key :: acc)))
  in
  List.iter
    (fun key ->
      match Store.Codec.parse_key ~jobs:1 key with
      | None -> ()
      | Some (cfg, name) -> (
          match span env "store.find" (fun () -> Store.Cas.find cas ~key) with
          | None -> ()
          | Some payload -> (
              match span env "store.decode" (fun () -> Store.Codec.decode_entry payload) with
              | Error _ -> ()
              | Ok (run, curve) ->
                  let parts () = Fuzzy.Analysis.of_parts cfg ~name ~run ~curve in
                  ignore (span env "core.of_parts" parts))))
    keys

let fill_store env =
  rm_rf "store";
  run_to_completion env.repro
    ([ "cache"; "warm" ] @ config_flags env @ [ "--dir"; "store" ] @ serve_names)
    ~log:"cache-warm.log";
  let refs = references env in
  (* What `repro serve --store` does at start-up: attach the store and
     warm the memory tier from it. *)
  Fuzzy.Experiments.clear_cache ();
  Store.Result_cache.attach ~dir:"store";
  let loaded = span env "store.warm" (fun () -> Store.Result_cache.warm ~jobs:1 ()) in
  (* The analyses warm preloaded, taken from the memory tier. *)
  let analyses =
    List.filter_map
      (fun name ->
        if Fuzzy.Experiments.cached env.config name then
          Some (name, Fuzzy.Experiments.analyze_cached env.config name)
        else None)
      serve_names
  in
  let no_computes =
    match Store.Result_cache.counters () with
    | Some c -> c.Store.Cas.misses = 0 && c.Store.Cas.writes = 0
    | None -> false
  in
  Store.Result_cache.detach ();
  if env.tracing then replay_warm env;
  let reference_ok =
    ref (no_computes && loaded = List.length serve_names && List.length analyses = loaded)
  in
  let expected =
    List.concat_map
      (fun name ->
        match List.assoc_opt name analyses with
        | None ->
            reference_ok := false;
            []
        | Some a ->
            let report = span env "core.report" (fun () -> Fuzzy.Report.analyze_report a) in
            if not (check_reference refs ~machine:"itanium2" ~name report) then
              reference_ok := false;
            let open Serve.Protocol in
            [
              (Analyze name, Report report);
              ( Quadrant name,
                Quadrant_verdict
                  {
                    workload = name;
                    quadrant = a.Fuzzy.Analysis.quadrant;
                    cpi_variance = a.Fuzzy.Analysis.cpi_variance;
                    re_kopt = a.Fuzzy.Analysis.re_kopt;
                    kopt = a.Fuzzy.Analysis.kopt;
                    technique = Fuzzy.Techniques.(to_string (recommend a.Fuzzy.Analysis.quadrant));
                  } );
              (Re_curve name, Curve { workload = name; curve = a.Fuzzy.Analysis.curve });
            ])
      serve_names
  in
  {
    expected = List.map (fun (req, resp) -> (req, Serve.Protocol.encode_response resp)) expected;
    reference_ok = !reference_ok;
  }

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let read_payload fd =
  match Serve.Wire.read_frame fd with
  | Ok p -> p
  | Error e -> failwith ("read_frame: " ^ Serve.Wire.error_to_string e)

let call fd req =
  write_all fd (Serve.Wire.encode (Serve.Protocol.encode_request req));
  match Serve.Protocol.decode_response (read_payload fd) with
  | Ok r -> r
  | Error m -> failwith ("decode_response: " ^ m)

(* Raw connect polled every 0.5 ms until the server listens; returns the
   socket and the number of attempts. *)
let poll_connect pid =
  let deadline = now () +. 60.0 in
  let rec go attempts =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> (fd, attempts + 1)
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _) ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            children := List.filter (( <> ) pid) !children;
            failwith "server exited before listening");
        if now () > deadline then failwith "server did not start listening";
        Unix.sleepf 0.0005;
        go (attempts + 1)
  in
  go 0

let stats fd =
  match call fd Serve.Protocol.Stats with
  | Serve.Protocol.Stats_snapshot s -> s
  | _ -> failwith "stats: unexpected response"

let no_computes (s : Serve.Metrics.snapshot) =
  s.Serve.Metrics.store_misses = 0 && s.Serve.Metrics.store_writes = 0
  && s.Serve.Metrics.cache_misses = 0

let shutdown fd pid =
  let acked = call fd Serve.Protocol.Shutdown = Serve.Protocol.Shutdown_ack in
  Unix.close fd;
  acked && reap pid = Unix.WEXITED 0

let serve_argv env ~store ~metrics =
  [ "serve" ] @ config_flags env
  @ [ "--io-shards"; "1"; "--store"; store; "--socket"; socket ]
  @ if metrics then [ "--metrics-port"; "0" ] else []

(* Spawn a server and time it to its first answer (a health RPC). *)
let restart ?(metrics = false) env ~store =
  let t0 = now () in
  let pid =
    span env "serve.spawn" (fun () ->
        spawn env.repro (serve_argv env ~store ~metrics) ~log:"serve.log")
  in
  let fd, attempts = span env "serve.connect" (fun () -> poll_connect pid) in
  let health = span env "serve.first_answer" (fun () -> call fd Serve.Protocol.Health) in
  (now () -. t0, pid, fd, attempts, health)

let median_of l = if l = [] then 0.0 else Kit.median (Array.of_list l)

(* Scrape /metrics and return (sum seconds, count) of the request
   duration histogram per verb. *)
let scrape port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      write_all fd "GET /metrics HTTP/1.0\r\n\r\n";
      let buf = Buffer.create 16384 and chunk = Bytes.create 4096 in
      let rec drain () =
        let n = Unix.read fd chunk 0 4096 in
        if n > 0 then (
          Buffer.add_subbytes buf chunk 0 n;
          drain ())
      in
      drain ();
      let value prefix kind =
        let p = Printf.sprintf "repro_request_duration_seconds_%s{kind=\"%s\"} " prefix kind in
        List.find_map
          (fun l ->
            if String.starts_with ~prefix:p l then
              float_of_string_opt (String.sub l (String.length p) (String.length l - String.length p))
            else None)
          (String.split_on_char '\n' (Buffer.contents buf))
        |> Option.value ~default:0.0
      in
      List.map (fun k -> (k, (value "sum" k, value "count" k))) [ "analyze"; "quadrant"; "re_curve" ])

let metrics_port () =
  let prefix = "metrics listening on http://127.0.0.1:" in
  let parse l =
    let n = String.length prefix in
    let rec at i =
      if i + n > String.length l then None
      else if String.sub l i n = prefix then
        Scanf.sscanf_opt (String.sub l (i + n) (String.length l - i - n)) "%d" Fun.id
      else at (i + 1)
    in
    at 0
  in
  let rec go tries =
    match List.find_map parse (String.split_on_char '\n' (read_file "serve.log")) with
    | Some p -> p
    | None when tries > 0 ->
        Unix.sleepf 0.01;
        go (tries - 1)
    | None -> failwith "metrics port not announced"
  in
  go 500

(* The warm phase a restart leads to, measured per layer in traced runs
   of serve_restart: a server on the store answers pipelined batches of
   analyze, quadrant and re_curve for each stored workload (18 requests)
   on one connection for [seconds].  A probe follows.  It sends the
   batch's requests one at a time, so the server's per-verb latency
   histogram measures service time rather than queueing behind the rest
   of a pipelined batch.  It also sends pipelined batches of 18 health
   requests, which time the transport (wire, protocol, event loop,
   syscalls) without analysis work.  Returns whether every answer and
   the final stats were right, and the per-layer values. *)
let warm_phase env served ~seconds =
  let expected = served.expected in
  let per_batch = List.length expected in
  let _, pid, fd, _, health = restart ~metrics:true env ~store:"store" in
  let port = metrics_port () in
  (* requests sent on this connection, and how many were analyze,
     quadrant or re_curve *)
  let sent = ref 1 and heavy = ref 0 in
  let ok = ref (match health with Serve.Protocol.Health_ok _ -> true | _ -> false) in
  let timed = ref [] and encode = ref [] in
  let t_end = now () +. seconds in
  while now () < t_end do
    let t0 = now () in
    let frames =
      String.concat ""
        (List.map (fun (req, _) -> Serve.Wire.encode (Serve.Protocol.encode_request req)) expected)
    in
    let t1 = now () in
    write_all fd frames;
    let got = List.map (fun _ -> read_payload fd) expected in
    let t2 = now () in
    encode := (t1 -. t0) :: !encode;
    timed := (t2 -. t0) :: !timed;
    sent := !sent + per_batch;
    heavy := !heavy + per_batch;
    if not (List.for_all2 (fun (_, e) g -> String.equal e g) expected got) then ok := false
  done;
  let before = scrape port in
  for _ = 1 to 20 do
    List.iter
      (fun (req, _) ->
        ignore (call fd req);
        incr sent;
        incr heavy)
      expected
  done;
  let after = scrape port in
  let service =
    List.map
      (fun (k, (sum, n)) ->
        let sum0, n0 = List.assoc k before in
        ("serve.server_ms." ^ k, if n > n0 then ms ((sum -. sum0) /. (n -. n0)) else 0.0))
      after
  in
  let health_frames =
    String.concat ""
      (List.map
         (fun _ -> Serve.Wire.encode (Serve.Protocol.encode_request Serve.Protocol.Health))
         expected)
  in
  let transport =
    List.init 50 (fun _ ->
        let t0 = now () in
        write_all fd health_frames;
        List.iter (fun _ -> ignore (read_payload fd)) expected;
        sent := !sent + per_batch;
        now () -. t0)
  in
  incr sent;
  let s = stats fd in
  if not (no_computes s && s.Serve.Metrics.requests_total = !sent) then begin
    Printf.eprintf "perfbench: stats after the warm phase: requests_total=%d sent=%d\n%!"
      s.Serve.Metrics.requests_total !sent;
    ok := false
  end;
  let ok = shutdown fd pid && !ok in
  let batches = Array.of_list !timed in
  ( ok,
    service
    @ [
        ("serve.batch_p50_ms", ms (Kit.median batches));
        ("serve.batch_p90_ms", ms (Kit.percentile batches 90.0));
        ( "serve.requests_per_s",
          float_of_int (per_batch * Array.length batches) /. Array.fold_left ( +. ) 0.0 batches );
        ("serve.encode_ms", ms (median_of !encode));
        ("serve.transport_ms", ms (median_of transport));
        ( "serve.cache_hits",
          float_of_int (s.Serve.Metrics.cache_hits * per_batch) /. float_of_int !heavy );
        ("serve.cache_misses", float_of_int s.Serve.Metrics.cache_misses);
      ] )

(* serve_restart: restart `repro serve --store` and time spawn to first
   answer. *)
let serve_restart env =
  let served = ref { expected = []; reference_ok = false } in
  let setup () = served := fill_store env in
  let start () =
    let rss = ref [] in
    let run_op () =
      let d, pid, fd, n, health = restart env ~store:"store" in
      (* After the clock stops: the server's own count of what its warm
         read. *)
      let s = span env "serve.stats" (fun () -> stats fd) in
      count env "store.hits" (float_of_int s.Serve.Metrics.store_hits);
      count env "store.misses" (float_of_int s.Serve.Metrics.store_misses);
      count env "store.writes" (float_of_int s.Serve.Metrics.store_writes);
      count env "connect_attempts" (float_of_int n);
      let check () =
        rss := peak_rss_mb pid :: !rss;
        let ok =
          !served.reference_ok
          && (match health with Serve.Protocol.Health_ok _ -> true | _ -> false)
          && no_computes s
          && s.Serve.Metrics.store_hits = List.length serve_names
        in
        shutdown fd pid && ok
      in
      (d, check)
    in
    (* Traced runs also time restarts on an empty store (the server's
       start-up cost without the warm), then run the warm phase. *)
    let startup = ref [] and warm = ref [] in
    let finish () =
      Unix.mkdir "empty-store" 0o755;
      let restarts_ok =
        List.for_all
          (fun _ ->
            let d, pid, fd, _, _ = restart env ~store:"empty-store" in
            startup := d :: !startup;
            shutdown fd pid)
          (List.init 15 Fun.id)
      in
      let warm_ok, values = warm_phase env !served ~seconds:3.0 in
      warm := values;
      restarts_ok && warm_ok && !served.reference_ok
    in
    {
      units_per_op = 1.0;
      run_op;
      finish = (if env.args.trace then Some finish else None);
      rss_mb = (fun () -> median_of !rss);
      layer_extra = (fun () -> ("serve.startup_ms", ms (median_of !startup)) :: !warm);
    }
  in
  {
    why =
      "restarts repro serve --store on a six-entry store until its first answer: \
       store read side and server start-up, no compute";
    setup_reps = 3;
    setup;
    start;
  }

let workloads =
  [ ("cold_analyze", cold_analyze); ("trace_replay", trace_replay); ("serve_restart", serve_restart) ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)

let end_to_end = [ ("setup_s", "s"); ("peak_rss_mb", "MB"); ("throughput_per_s", "1/s"); ("op_p50_ms", "ms"); ("op_p90_ms", "ms") ]

(* How a per-layer metric is derived from one traced operation. *)
type source =
  | Self of (string -> bool)  (** self time (ms) of the spans whose name matches *)
  | Counter of (self:(string -> float) -> count:(string -> float) -> float)
      (** from the operation's counters ([count]) and the self time in
          seconds of its spans by name ([self]) *)
  | Extra  (** supplied by the workload ([layer_extra]) *)

let named n = Self (String.equal n)
let ctr name = Counter (fun ~self:_ ~count -> count name)

let per_layer =
  [
    ("workload.build_ms", "ms", named "workload.build");
    ("sampling.driver_run_ms", "ms", named "sampling.driver_run");
    ( "sampling.sim_minstr_per_s",
      "Minstr/s",
      Counter
        (fun ~self ~count ->
          let t = self "sampling.driver_run" in
          if t > 0.0 then count "instrs" /. t /. 1e6 else 0.0) );
    ( "sampling.driver_alloc_words_per_instr",
      "words/instr",
      Counter
        (fun ~self:_ ~count ->
          if count "instrs" > 0.0 then count "driver_words" /. count "instrs" else 0.0) );
    ("sampling.eipv_build_ms", "ms", named "sampling.eipv_build");
    ("sampling.trace_load_ms", "ms", named "sampling.trace_load");
    ("rtree.cv_ms", "ms", Self (String.starts_with ~prefix:"rtree.cv"));
    ("rtree.cv_ms.div1", "ms", named "rtree.cv.div1");
    ("rtree.cv_ms.div2", "ms", named "rtree.cv.div2");
    ("rtree.cv_ms.div10", "ms", named "rtree.cv.div10");
    ("rtree.cv_alloc_mwords", "Mwords", Counter (fun ~self:_ ~count -> count "cv_words" /. 1e6));
    ("online.feed_ms", "ms", named "online.feed");
    ("online.finalize_ms", "ms", named "online.finalize");
    ("online.refits", "count", ctr "refits");
    ("online.drift_events", "count", ctr "drift_events");
    ("core.report_ms", "ms", named "core.report");
    ("core.of_parts_ms", "ms", named "core.of_parts");
    ("store.encode_ms", "ms", named "store.encode");
    ("store.put_ms", "ms", named "store.put");
    ( "store.entry_kb",
      "kB",
      Counter
        (fun ~self:_ ~count ->
          let writes = count "store.writes" in
          if writes > 0.0 then count "entry_bytes" /. 1024.0 /. writes else 0.0) );
    ("store.fold_ms", "ms", named "store.fold");
    ("store.find_ms", "ms", named "store.find");
    ("store.decode_ms", "ms", named "store.decode");
    ("store.warm_ms", "ms", named "store.warm");
    ("store.hits", "count", ctr "store.hits");
    ("store.misses", "count", ctr "store.misses");
    ("store.writes", "count", ctr "store.writes");
    ("serve.server_ms.analyze", "ms", Extra);
    ("serve.server_ms.quadrant", "ms", Extra);
    ("serve.server_ms.re_curve", "ms", Extra);
    ("serve.transport_ms", "ms", Extra);
    ("serve.encode_ms", "ms", Extra);
    ("serve.batch_p50_ms", "ms", Extra);
    ("serve.batch_p90_ms", "ms", Extra);
    ("serve.requests_per_s", "1/s", Extra);
    ("serve.startup_ms", "ms", Extra);
    ("serve.cache_hits", "count", Extra);
    ("serve.cache_misses", "count", Extra);
    ("serve.connect_attempts", "count", ctr "connect_attempts");
    ("other_ms", "ms", named "op");
    ("trace.coverage_pct", "%", Extra);
    ("trace.overhead_pct", "%", Extra);
  ]

let per_layer_metrics env inst ~traced_d ~untraced_d =
  let spans = Kit.Span.spans env.rec_ in
  let ops_named n =
    List.filter_map (fun (s : Kit.Span.t) -> if s.Kit.Span.name = n then Some s else None)
      (Kit.Span.roots spans)
  in
  let timed = ops_named "op" and setups = ops_named "setup" in
  let selfs = Kit.Span.self_by_op spans in
  let self op pred =
    List.fold_left (fun acc (n, v) -> if pred n then acc +. v else acc) 0.0
      (Option.value (List.assoc_opt op selfs) ~default:[])
  in
  let has op pred =
    List.exists (fun (s : Kit.Span.t) -> s.Kit.Span.op = op && pred s.Kit.Span.name) spans
  in
  let counter op name = Option.value (Hashtbl.find_opt env.counts (op, name)) ~default:0.0 in
  (* Median over the timed operations that record the metric's spans, or
     else over the set-ups that do (serve_restart calls lib/store and
     lib/core only while preparing the expected answers). *)
  let over pred f =
    let pick ops = List.filter (fun (s : Kit.Span.t) -> has s.Kit.Span.op pred) ops in
    match (pick timed, pick setups) with
    | [], [] -> 0.0
    | [], ops | ops, _ -> median_of (List.map (fun (s : Kit.Span.t) -> f s.Kit.Span.op) ops)
  in
  let over_timed f = median_of (List.map (fun (s : Kit.Span.t) -> f s) timed) in
  let derived =
    List.filter_map
      (fun (name, _, source) ->
        match source with
        | Self pred -> Some (name, over pred (fun op -> ms (self op pred)))
        | Counter f ->
            Some
              ( name,
                over_timed (fun s ->
                    let op = s.Kit.Span.op in
                    f ~self:(fun n -> self op (String.equal n)) ~count:(counter op)) )
        | Extra -> None)
      per_layer
  in
  let coverage =
    over_timed (fun s ->
        let d = s.Kit.Span.stop -. s.Kit.Span.start in
        if d > 0.0 then 100.0 *. (1.0 -. (self s.Kit.Span.op (String.equal "op") /. d)) else 0.0)
  in
  let overhead =
    match (traced_d, untraced_d) with
    | [], _ | _, [] -> 0.0
    | t, u -> 100.0 *. ((median_of t /. median_of u) -. 1.0)
  in
  (* Each metric has one source: the workload supplies only the Extra
     ones. *)
  let extra =
    ("trace.coverage_pct", coverage) :: ("trace.overhead_pct", overhead) :: inst.layer_extra ()
  in
  List.iter
    (fun (name, _) ->
      match List.find_opt (fun (n, _, _) -> n = name) per_layer with
      | Some (_, _, Extra) -> ()
      | _ -> invalid_arg ("per-layer metric " ^ name ^ " is not declared as supplied by the workload"))
    extra;
  let values = extra @ derived in
  List.map
    (fun (name, unit_, _) ->
      { Kit.name; value = Option.value (List.assoc_opt name values) ~default:0.0; unit_ })
    per_layer

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)

(* The fixed L1-sized loop bench/main.ml reports as calibration_ms,
   recorded next to every result (never divided into it). *)
let calibration_ms () =
  let kernel () =
    let a = Array.make 4096 0.0 in
    for i = 0 to 3_999_999 do
      let j = i land 4095 in
      Array.unsafe_set a j (Array.unsafe_get a j +. (float_of_int (i land 63) *. 0.5))
    done;
    a.(0)
  in
  Kit.median
    (Array.init 9 (fun _ ->
         let t0 = now () in
         ignore (Sys.opaque_identity (kernel ()));
         ms (now () -. t0)))

let context_json env spec ~calib ~ops =
  let c = env.config in
  Printf.sprintf
    "{\"context\": {\"workload\": \"%s\", \"why\": \"%s\", \"seed\": %d, \"cores\": %d, \
     \"calibration_ms\": %.4f, \"geometry\": {\"intervals\": %d, \"samples_per_interval\": %d, \
     \"period\": %d, \"scale\": %g, \"kmax\": %d}, \"size\": \"%s\", \"jobs\": %d, \
     \"io_shards\": 1, \"cpus_used\": %d, \"seconds\": %g, \"trace\": %d, \"ops\": %d}}"
    env.args.workload spec.why env.args.seed
    (* run.sh records the CPUs it may use before pinning to one *)
    (match Option.bind (Sys.getenv_opt "PERFBENCH_CORES") int_of_string_opt with
    | Some n -> n
    | None -> Domain.recommended_domain_count ())
    calib c.Fuzzy.Analysis.intervals c.Fuzzy.Analysis.samples_per_interval
    c.Fuzzy.Analysis.period c.Fuzzy.Analysis.scale c.Fuzzy.Analysis.kmax
    (match env.args.size with Quick -> "quick" | Tiny -> "tiny")
    c.Fuzzy.Analysis.jobs
    (Domain.recommended_domain_count ())
    env.seconds
    (if env.args.trace then 1 else 0)
    ops

let absolute root p = if Filename.is_relative p then Filename.concat root p else p

let () =
  let args = parse_args Sys.argv in
  let make =
    match List.assoc_opt args.workload workloads with
    | Some f -> f
    | None -> die "unknown workload %S (have: %s)" args.workload (String.concat ", " (List.map fst workloads))
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let root = Sys.getcwd () in
  let repro =
    absolute root (Option.value args.repro ~default:"_build/default/bin/repro.exe")
  in
  if not (Sys.file_exists repro) then die "%s not found (perfbench/run.sh builds it)" repro;
  let base = Filename.concat root ".perfbench_run" in
  if not (Sys.file_exists base) then Unix.mkdir base 0o755;
  let dir = Filename.concat base (Printf.sprintf "%s-%d" args.workload (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Sys.chdir dir;
  at_exit (fun () ->
      kill_children ();
      Sys.chdir root;
      rm_rf dir);
  let env =
    {
      args;
      config = config_of ~seed:args.seed args.size;
      root;
      seconds = (match args.seconds with Some s -> s | None -> run_seconds root);
      repro;
      rec_ = Kit.Span.recorder ~clock:now;
      tracing = false;
      counts = Hashtbl.create 64;
    }
  in
  let spec = make env in
  let calib = calibration_ms () in
  let traced_call name f =
    if args.trace then begin
      env.tracing <- true;
      Fun.protect
        ~finally:(fun () -> env.tracing <- false)
        (fun () -> Kit.Span.op env.rec_ name f)
    end
    else f ()
  in
  let setup_times =
    List.init spec.setup_reps (fun _ ->
        let t0 = now () in
        traced_call "setup" spec.setup;
        now () -. t0)
  in
  let inst = spec.start () in
  let tally = Kit.Tally.create () in
  let traced_d = ref [] and untraced_d = ref [] in
  let t_start = now () and n = ref 0 in
  let min_ops = if args.trace then 2 else 1 in
  while !n < min_ops || now () -. t_start < env.seconds do
    (* A traced run alternates traced and untraced operations, so the
       tracing overhead is measured within the run. *)
    let traced = args.trace && !n mod 2 = 1 in
    Kit.Tally.attempt tally (fun () ->
        let d, check = if traced then traced_call "op" inst.run_op else inst.run_op () in
        if traced then traced_d := d :: !traced_d else untraced_d := d :: !untraced_d;
        check ());
    incr n
  done;
  Option.iter (Kit.Tally.attempt tally) inst.finish;
  if !untraced_d = [] then die "no operation completed";
  let metrics =
    if args.trace then per_layer_metrics env inst ~traced_d:!traced_d ~untraced_d:!untraced_d
    else
      let ds = Array.of_list !untraced_d in
      let value = function
        | "setup_s" -> median_of setup_times
        | "peak_rss_mb" -> inst.rss_mb ()
        | "throughput_per_s" ->
            inst.units_per_op *. float_of_int (Array.length ds) /. Array.fold_left ( +. ) 0.0 ds
        | "op_p50_ms" -> ms (Kit.median ds)
        | "op_p90_ms" -> ms (Kit.percentile ds 90.0)
        | m -> invalid_arg m
      in
      List.map (fun (name, unit_) -> { Kit.name; value = value name; unit_ }) end_to_end
  in
  if args.trace then
    write_file
      (Filename.concat base (args.workload ^ ".spans.tsv"))
      (Kit.Span.to_tsv (Kit.Span.spans env.rec_));
  print_endline (context_json env spec ~calib ~ops:!n);
  print_endline
    (Kit.result_json ~attempted:(Kit.Tally.attempted tally) ~failed:(Kit.Tally.failed tally) metrics)
