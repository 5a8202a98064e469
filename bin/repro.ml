(* Command-line driver regenerating every table and figure of the paper.
   `repro list` enumerates experiments; `repro run fig2 table2 ...` prints
   them; `repro all` runs the lot; `repro analyze <workload>` runs the
   predictability pipeline on one workload. *)

open Cmdliner

(* Shared diagnostic for a mistyped workload name: every entry point
   (analyze, quadrant, stream, client ingest) lists the valid names and
   exits non-zero instead of dying on an uncaught exception. *)
let unknown_workload name =
  Printf.eprintf "unknown workload %S; valid names:\n" name;
  Array.iter (fun n -> Printf.eprintf "  %s\n" n) Workload.Catalog.names;
  exit 1

(* An int argument with hard bounds.  Out-of-range values are rejected
   by cmdliner itself (error + usage, non-zero exit), never dropped back
   to a default; a port must be checked here because the socket address
   would silently take it modulo 65536. *)
let int_within ~min ~max ~what =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= min && v <= max -> Ok v
    | Some v when max = max_int ->
        Error (`Msg (Printf.sprintf "%s must be >= %d (got %d)" what min v))
    | Some v ->
        Error (`Msg (Printf.sprintf "%s must be in %d..%d (got %d)" what min max v))
    | None -> Error (`Msg (Printf.sprintf "%s must be an integer (got %S)" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let bounded_int = int_within ~max:max_int
let port_int = int_within ~min:0 ~max:65535

(* A float argument that must be >= 0; NaN fails the comparison, so it
   is refused too. *)
let non_negative_float ~what =
  let parse s =
    match float_of_string_opt s with
    | Some v when v >= 0.0 -> Ok v
    | Some _ -> Error (`Msg (Printf.sprintf "%s must be a number >= 0 (got %s)" what s))
    | None -> Error (`Msg (Printf.sprintf "%s must be a number (got %S)" what s))
  in
  Arg.conv (parse, Format.pp_print_float)

(* Returns (config, quick): most commands only want the config, but
   `zoo atlas' reuses the --quick flag to also select the quick scenario
   subset, and cmdliner forbids registering the flag twice. *)
let config_quick_term =
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Use the reduced test-scale configuration.")
  in
  let seed =
    Arg.(value & opt int Fuzzy.Analysis.default.Fuzzy.Analysis.seed & info [ "seed" ] ~doc:"PRNG seed.")
  in
  let scale =
    Arg.(value & opt (some float) None & info [ "scale" ] ~doc:"Workload data-size multiplier.")
  in
  let intervals =
    Arg.(
      value
      & opt (some (bounded_int ~min:1 ~what:"INTERVALS")) None
      & info [ "intervals" ] ~doc:"Number of EIPV intervals.")
  in
  let spi =
    Arg.(
      value
      & opt (some (bounded_int ~min:1 ~what:"SAMPLES")) None
      & info [ "samples-per-interval" ] ~doc:"Sampler interrupts per EIPV interval.")
  in
  let machine =
    Arg.(
      value
      & opt (enum [ ("itanium2", "itanium2"); ("pentium4", "pentium4"); ("xeon", "xeon") ])
          "itanium2"
      & info [ "machine" ] ~doc:"Machine model: itanium2, pentium4 or xeon.")
  in
  let jobs =
    Arg.(
      value
      & opt (some (bounded_int ~min:1 ~what:"JOBS")) None
      & info [ "jobs"; "j" ]
          ~doc:
            "Worker domains for the CV fold fan-out and workload sweeps (default: the JOBS \
             environment variable, else the recommended domain count capped at 8).  Results \
             are bit-identical for every value; 1 runs fully serially.")
  in
  let build quick seed scale intervals spi machine jobs =
    let base = if quick then Fuzzy.Analysis.quick else Fuzzy.Analysis.default in
    let base = { base with Fuzzy.Analysis.seed; machine = March.Config.by_name machine } in
    let base =
      match scale with Some s -> { base with Fuzzy.Analysis.scale = s } | None -> base
    in
    let base =
      match intervals with Some i -> { base with Fuzzy.Analysis.intervals = i } | None -> base
    in
    let base =
      match spi with
      | Some s -> { base with Fuzzy.Analysis.samples_per_interval = s }
      | None -> base
    in
    let base =
      match jobs with Some j -> { base with Fuzzy.Analysis.jobs = j } | None -> base
    in
    (base, quick)
  in
  Term.(const build $ quick $ seed $ scale $ intervals $ spi $ machine $ jobs)

let config_term = Term.(const fst $ config_quick_term)

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-10s %s\n           paper: %s\n" e.Fuzzy.Experiments.id
          e.Fuzzy.Experiments.title e.Fuzzy.Experiments.paper_claim)
      Fuzzy.Experiments.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available experiments.") Term.(const run $ const ())

let run_experiments config ids =
  List.iter
    (fun id ->
      match Fuzzy.Experiments.find id with
      | exception Not_found ->
          Printf.eprintf "unknown experiment %S; try `repro list`\n" id;
          exit 1
      | e ->
          Printf.printf "==== %s ====\n%!" e.Fuzzy.Experiments.title;
          print_string (e.Fuzzy.Experiments.run config);
          print_newline ())
    ids

let run_cmd =
  let ids =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc:"Experiment ids.")
  in
  let run config ids = run_experiments config ids in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one or more experiments by id.")
    Term.(const run $ config_term $ ids)

let all_cmd =
  let run config = run_experiments config Fuzzy.Experiments.ids in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment (full paper reproduction).")
    Term.(const run $ config_term)

let analyze_cmd =
  let names =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"WORKLOAD" ~doc:"Catalog workload names.")
  in
  let run config names =
    List.iter
      (fun name ->
        match Workload.Catalog.find_opt name with
        | None -> unknown_workload name
        | Some _ ->
            let a = Fuzzy.Experiments.analyze_cached config name in
            (* One renderer shared with the serve Analyze RPC, so server
               responses are byte-identical to this output. *)
            print_string (Fuzzy.Report.analyze_report a))
      names
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Analyze individual workloads end to end.")
    Term.(const run $ config_term $ names)

let quadrant_cmd =
  let names =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"WORKLOAD" ~doc:"Catalog workload names.")
  in
  let run config names =
    List.iter
      (fun name ->
        match Workload.Catalog.find_opt name with
        | None -> unknown_workload name
        | Some _ ->
            (* Rendered through the serve protocol so the offline verdict
               is byte-identical to the Quadrant RPC's response. *)
            print_string
              (Serve.Protocol.render_response
                 (Serve.Protocol.quadrant_verdict name
                    (Fuzzy.Experiments.analyze_cached config name))))
      names
  in
  Cmd.v
    (Cmd.info "quadrant"
       ~doc:
         "Print just the quadrant verdict and recommended sampling technique for workloads, \
          byte-identical to the server's `quadrant' RPC.")
    Term.(const run $ config_term $ names)

let stream_cmd =
  let names =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"WORKLOAD" ~doc:"Catalog workload names.")
  in
  let reservoir =
    Arg.(
      value
      & opt (some (bounded_int ~min:1 ~what:"RESERVOIR")) None
      & info [ "reservoir" ]
          ~doc:
            "Training-window capacity in intervals (default 256).  Runs no longer than this \
             finalize on the full history and match the offline analysis exactly.")
  in
  let window =
    Arg.(
      value
      & opt (some (bounded_int ~min:2 ~what:"WINDOW")) None
      & info [ "window" ] ~doc:"Trailing-window width for the windowed CPI variance.")
  in
  let no_trace =
    Arg.(
      value & flag
      & info [ "no-trace" ] ~doc:"Print only the final verdict, not the per-interval trace.")
  in
  let run config names reservoir window no_trace =
    let ocfg = { Online.Pipeline.default with Online.Pipeline.analysis = config } in
    let ocfg =
      match reservoir with
      | Some r -> { ocfg with Online.Pipeline.reservoir = r }
      | None -> ocfg
    in
    let ocfg =
      match window with Some w -> { ocfg with Online.Pipeline.window = w } | None -> ocfg
    in
    List.iter
      (fun name ->
        match Workload.Catalog.find_opt name with
        | None -> unknown_workload name
        | Some _ ->
            let on_verdict v =
              if not no_trace then Format.printf "%a@." Online.Classifier.pp_verdict v
            in
            let final = Online.Pipeline.run ~on_verdict ocfg name in
            Format.printf "%a@." Online.Pipeline.pp_final final;
            Printf.printf "recommended sampling technique: %s\n"
              (Fuzzy.Techniques.to_string
                 (Fuzzy.Techniques.recommend final.Online.Pipeline.quadrant)))
      names
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:
         "Stream workloads through the online-analysis pipeline: incremental EIPVs, \
          drift-triggered refits and a live quadrant verdict per interval.  Output is \
          bit-identical for every --jobs value.")
    Term.(const run $ config_term $ names $ reservoir $ window $ no_trace)

(* The linter and the graph read whatever sources they find under
   --root, so a mistyped root would read as an empty, clean tree: refuse
   one that is not a directory. *)
let require_dir root =
  if not (Sys.file_exists root && Sys.is_directory root) then begin
    Printf.eprintf "repro: --root %s: not a directory\n" root;
    exit 1
  end

let lint_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the machine-readable JSON report.")
  in
  let root =
    Arg.(
      value & opt string "."
      & info [ "root" ] ~docv:"DIR"
          ~doc:"Directory to lint (default: the current repo checkout).")
  in
  let run json root =
    require_dir root;
    let res = (Lint.Engine.run_deep ~root).Lint.Engine.dresult in
    print_string (if json then Lint.Reporter.json res else Lint.Reporter.human res);
    if Lint.Engine.errors res > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically check the determinism & hygiene rules (D001-D008) over the source \
          tree: randomness outside Stats.Rng, wall-clock outside bench/, unsorted \
          Hashtbl traversals, stray Domain.spawn, physical equality, stdout printing in \
          lib/, missing .mli files and wildcard exception handlers.  Then build the \
          alias-aware whole-repo reference graph and run G001-G004 on it: \
          nondeterminism reachability, task-context races, handler exception escape \
          and the dead-export audit.  Exits non-zero on any unwaived error.")
    Term.(const run $ json $ root)

let graph_cmd =
  let root =
    Arg.(
      value & opt string "."
      & info [ "root" ] ~docv:"DIR"
          ~doc:"Directory to analyze (default: the current repo checkout).")
  in
  let dot =
    Arg.(
      value & flag
      & info [ "dot" ] ~doc:"Emit the module-level condensation in Graphviz syntax.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the function-level graph (nodes, edges, globals, roots) as JSON.")
  in
  let run root dot json =
    require_dir root;
    let d = Lint.Engine.run_deep ~root in
    let effects id =
      match Lint.Graph.node_index d.Lint.Engine.graph id with
      | Some i -> Lint.Effects.effect_names d.Lint.Engine.effects.(i)
      | None -> []
    in
    if dot then print_string (Lint.Graph.to_dot ~effects d.Lint.Engine.graph)
    else if json then print_string (Lint.Graph.to_json ~effects d.Lint.Engine.graph)
    else print_string (Lint.Graph.summary d.Lint.Engine.graph)
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:
         "Build the alias-aware whole-repo reference graph the deep linter runs on and \
          render it: a one-line summary by default, $(b,--dot) for the module-level \
          condensation with transitive effect sets, $(b,--json) for the full \
          function-level graph.")
    Term.(const run $ root $ dot $ json)

let address_term =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Serve on (or connect to) the Unix-domain socket $(docv).  Default: repro.sock.")
  in
  let port =
    Arg.(
      value
      & opt (some (port_int ~what:"PORT")) None
      & info [ "port" ] ~docv:"N"
          ~doc:"Serve on (or connect to) TCP port $(docv) on 127.0.0.1 instead of a socket.")
  in
  let build socket port =
    match port with
    | Some p -> Serve.Server.Tcp p
    | None -> Serve.Server.Unix_socket (Option.value socket ~default:"repro.sock")
  in
  Term.(const build $ socket $ port)

let serve_cmd =
  let queue =
    Arg.(
      value
      & opt (bounded_int ~min:0 ~what:"QUEUE") 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Bounded heavy-request queue: beyond $(docv) waiting requests the server answers \
             `overloaded' instead of queueing without bound (0 answers every heavy request \
             `overloaded').")
  in
  let max_conns =
    Arg.(
      value
      & opt (bounded_int ~min:1 ~what:"MAX-CONNS") 32
      & info [ "max-conns" ] ~docv:"N"
          ~doc:"Connection cap; excess connections are refused with `busy'.")
  in
  let timeout =
    Arg.(
      value
      & opt (some (non_negative_float ~what:"TIMEOUT")) None
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:
            "Per-request deadline: a request queued longer than $(docv) seconds answers \
             `timeout' instead of running.  Deadlines only gate queue wait, so they never \
             truncate a result.")
  in
  let store_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Attach the persistent result store at $(docv): warm the in-memory analysis \
             cache from it at startup, persist every newly computed analysis into it, and \
             report store hit/miss/write/corrupt counters in the stats RPC.")
  in
  let io_shards =
    Arg.(
      value
      & opt (bounded_int ~min:1 ~what:"IO-SHARDS") 1
      & info [ "io-shards" ] ~docv:"N"
          ~doc:
            "Accept/IO domains.  Connections are assigned a shard by connection id; each \
             shard runs its own event loop and session table, all feeding the one shared \
             worker pool.  Responses stay byte-identical for every value.")
  in
  let rate_burst =
    Arg.(
      value
      & opt (bounded_int ~min:0 ~what:"RATE-BURST") 0
      & info [ "rate-burst" ] ~docv:"N"
          ~doc:
            "Admission: per-peer token bucket of $(docv) tokens for heavy requests (0 \
             disables rate limiting).  Tokens refill per request-count tick, never wall \
             clock, so the admit/reject sequence is replayable.")
  in
  let rate_every =
    Arg.(
      value
      & opt (bounded_int ~min:1 ~what:"RATE-EVERY") 4
      & info [ "rate-every" ] ~docv:"TICKS"
          ~doc:"Admission: restore one token every $(docv) of the peer's own request ticks.")
  in
  let max_request =
    Arg.(
      value
      & opt (bounded_int ~min:0 ~what:"MAX-REQUEST") 0
      & info [ "max-request" ] ~docv:"BYTES"
          ~doc:
            "Admission: refuse heavy requests whose payload exceeds $(docv) bytes with \
             `too_large' (0 = unlimited).")
  in
  let breaker_trip =
    Arg.(
      value
      & opt (bounded_int ~min:0 ~what:"BREAKER-TRIP") 0
      & info [ "breaker-trip" ] ~docv:"K"
          ~doc:
            "Admission: open a peer's circuit breaker after $(docv) consecutive shed \
             outcomes (queue-full or timeout); 0 disables the breaker.")
  in
  let breaker_probe =
    Arg.(
      value
      & opt (bounded_int ~min:1 ~what:"BREAKER-PROBE") 8
      & info [ "breaker-probe" ] ~docv:"TICKS"
          ~doc:
            "Admission: an open breaker half-opens after $(docv) of the peer's own ticks \
             and admits a single probe whose outcome closes or re-opens it.")
  in
  let metrics_port =
    Arg.(
      value
      & opt (some (port_int ~what:"METRICS-PORT")) None
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:
            "Serve HTTP GET /metrics (Prometheus text exposition) and GET /health on \
             loopback port $(docv) (0 = OS-assigned; the bound port is reported on \
             stderr as `metrics listening on ...').  Omit for no HTTP endpoint.")
  in
  let run config address queue max_conns timeout store_dir io_shards rate_burst
      rate_every max_request breaker_trip breaker_probe metrics_port =
    (match store_dir with
    | None -> ()
    | Some dir ->
        Store.Result_cache.attach ~dir;
        let loaded = Store.Result_cache.warm ~jobs:config.Fuzzy.Analysis.jobs () in
        Printf.eprintf "repro-serve: store %s: warmed %d cached analyses\n%!" dir loaded);
    let admission =
      {
        Admission.bucket_capacity = rate_burst;
        refill_every = rate_every;
        max_request_bytes = max_request;
        breaker_trip;
        breaker_probe_after = breaker_probe;
      }
    in
    if Admission.enabled admission then
      Printf.eprintf
        "repro-serve: admission control on (burst=%d every=%d max-request=%d \
         breaker=%d/%d)\n%!"
        rate_burst rate_every max_request breaker_trip breaker_probe;
    let scfg = Serve.Server.config_of_analysis config in
    let scfg =
      {
        scfg with
        Serve.Server.queue_capacity = queue;
        max_connections = max_conns;
        request_timeout = timeout;
        io_shards;
        admission;
        metrics_port;
      }
    in
    (* Lifecycle chatter goes to stderr; stdout carries only the final
       deterministic metrics snapshot. *)
    let snapshot =
      Serve.Server.run ~on_event:(fun m -> Printf.eprintf "repro-serve: %s\n%!" m) scfg address
    in
    print_string (Serve.Metrics.render snapshot)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the analysis server: framed binary RPC over a Unix socket or TCP, heavy \
          requests fanned out onto the shared worker pool with bounded queueing, \
          batching of identical in-flight requests, per-request deadlines and live \
          metrics.  Responses are byte-identical to the offline commands for every \
          --jobs value.")
    Term.(
      const run $ config_term $ address_term $ queue $ max_conns $ timeout $ store_dir
      $ io_shards $ rate_burst $ rate_every $ max_request $ breaker_trip $ breaker_probe
      $ metrics_port)

let client_cmd =
  let args =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:
            "One of: analyze WORKLOAD, quadrant WORKLOAD, re-curve WORKLOAD, ingest \
             WORKLOAD, stats, health, shutdown.")
  in
  let wait =
    Arg.(
      value & flag
      & info [ "wait" ]
          ~doc:"Retry the connection while the server is still starting up (5 s of attempts).")
  in
  let fail msg =
    Printf.eprintf "repro-client: %s\n" msg;
    exit 1
  in
  let print_response resp =
    print_string (Serve.Protocol.render_response resp);
    if Serve.Protocol.is_error resp then exit 1
  in
  let simple_call conn req =
    match Serve.Client.call conn req with
    | Ok resp -> print_response resp
    | Error m -> fail m
  in
  (* Client-side ingestion: generate the workload's sample stream locally
     (same (seed, name) derivation as the offline and stream paths) and
     feed it over the wire in batches, printing the verdict trace the
     server returns, then the final fit. *)
  let ingest config conn name =
    match Workload.Catalog.find_opt name with
    | None -> unknown_workload name
    | Some entry ->
        let model =
          entry.Workload.Catalog.build ~seed:config.Fuzzy.Analysis.seed
            ~scale:config.Fuzzy.Analysis.scale
        in
        (match Serve.Client.call conn (Serve.Protocol.Ingest_open name) with
        | Ok (Serve.Protocol.Ingest_ack _) -> ()
        | Ok resp -> print_response resp
        | Error m -> fail m);
        let cpu = March.Cpu.create config.Fuzzy.Analysis.machine in
        let rng = Stats.Rng.split_label config.Fuzzy.Analysis.seed name in
        let samples =
          config.Fuzzy.Analysis.intervals * config.Fuzzy.Analysis.samples_per_interval
        in
        let batch = ref [] in
        let batch_len = ref 0 in
        let flush () =
          if !batch_len > 0 then begin
            let chunk = List.rev !batch in
            batch := [];
            batch_len := 0;
            match Serve.Client.call conn (Serve.Protocol.Ingest_feed chunk) with
            | Ok (Serve.Protocol.Verdicts _ as resp) ->
                print_string (Serve.Protocol.render_response resp)
            | Ok resp -> print_response resp
            | Error m -> fail m
          end
        in
        let _meta =
          Sampling.Driver.stream ~period:config.Fuzzy.Analysis.period model ~cpu ~rng ~samples
            ~f:(fun _ s ->
              batch := s :: !batch;
              incr batch_len;
              if !batch_len >= config.Fuzzy.Analysis.samples_per_interval then flush ())
        in
        flush ();
        simple_call conn Serve.Protocol.Ingest_finalize
  in
  let run config address wait args =
    let retry_for = if wait then 100 else 0 in
    match Serve.Client.connect ~retry_for address with
    | exception Unix.Unix_error (err, _, _) ->
        fail
          (Printf.sprintf "cannot connect to %s: %s"
             (Serve.Server.describe_address address)
             (Unix.error_message err))
    | conn ->
        Fun.protect
          ~finally:(fun () -> Serve.Client.close conn)
          (fun () ->
            match args with
            | [ "analyze"; w ] -> simple_call conn (Serve.Protocol.Analyze w)
            | [ "quadrant"; w ] -> simple_call conn (Serve.Protocol.Quadrant w)
            | [ "re-curve"; w ] -> simple_call conn (Serve.Protocol.Re_curve w)
            | [ "ingest"; w ] -> ingest config conn w
            | [ "stats" ] -> simple_call conn Serve.Protocol.Stats
            | [ "health" ] -> simple_call conn Serve.Protocol.Health
            | [ "shutdown" ] -> simple_call conn Serve.Protocol.Shutdown
            | other ->
                fail
                  (Printf.sprintf
                     "unknown request %S; expected analyze|quadrant|re-curve|ingest WORKLOAD, or \
                      stats|health|shutdown"
                     (String.concat " " other)))
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request to a running analysis server and print the response.  `analyze' \
          output is byte-identical to `repro analyze' under the same configuration.")
    Term.(const run $ config_term $ address_term $ wait $ args)

let workloads_cmd =
  let run () =
    Array.iter
      (fun e ->
        Printf.printf "%-12s (designed quadrant Q-%s)\n" e.Workload.Catalog.name
          (match e.Workload.Catalog.expected_quadrant with
          | 1 -> "I"
          | 2 -> "II"
          | 3 -> "III"
          | _ -> "IV"))
      Workload.Catalog.all
  in
  Cmd.v
    (Cmd.info "workloads" ~doc:"List the 50 catalog workloads.")
    Term.(const run $ const ())

(* ---- workload zoo ----------------------------------------------------- *)

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  nn = 0
  ||
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let zoo_filter_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "filter" ] ~docv:"SUBSTR" ~doc:"Only scenarios whose name contains $(docv).")

let zoo_json_term =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON instead of text.")

let zoo_select ~quick ~all ~filter =
  let base = if quick && not all then Zoo.Scenarios.quick () else Zoo.Scenarios.all () in
  match filter with
  | None -> base
  | Some sub ->
      List.filter (fun s -> contains_sub s.Zoo.Scenarios.manifest.Zoo.Manifest.name sub) base

let zoo_all_term =
  Arg.(
    value & flag
    & info [ "all" ]
        ~doc:
          "With --quick: keep the quick analysis configuration but run every scenario, not \
           just the representative subset (used to produce the full-atlas CI artifact).")

let zoo_list_cmd =
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"List only the representative quick subset of the zoo.")
  in
  let run quick all filter json =
    let scenarios = zoo_select ~quick ~all ~filter in
    if json then begin
      Printf.printf "{\n  \"count\": %d,\n  \"manifests\": [\n" (List.length scenarios);
      let last = List.length scenarios - 1 in
      List.iteri
        (fun i s ->
          Printf.printf "    \"%s\"%s\n"
            (Zoo.Manifest.encode s.Zoo.Scenarios.manifest)
            (if i = last then "" else ","))
        scenarios;
      print_string "  ]\n}\n"
    end
    else
      List.iter
        (fun s -> print_endline (Zoo.Manifest.encode s.Zoo.Scenarios.manifest))
        scenarios
  in
  Cmd.v
    (Cmd.info "list"
       ~doc:
         "Print one manifest line per zoo scenario.  Each line is sufficient to rebuild the \
          scenario bit-for-bit.")
    Term.(const run $ quick $ zoo_all_term $ zoo_filter_term $ zoo_json_term)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let zoo_gen_cmd =
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Generate only the representative quick subset of the zoo.")
  in
  let out =
    Arg.(
      value
      & opt string (Filename.concat "_build" "zoo-manifests")
      & info [ "out" ] ~docv:"DIR" ~doc:"Directory to write one .manifest file per scenario.")
  in
  let run quick all filter out =
    let scenarios = zoo_select ~quick ~all ~filter in
    mkdir_p out;
    List.iter
      (fun s ->
        let m = s.Zoo.Scenarios.manifest in
        let path = Filename.concat out (m.Zoo.Manifest.name ^ ".manifest") in
        let oc = open_out path in
        output_string oc (Zoo.Manifest.encode m);
        output_char oc '\n';
        close_out oc)
      scenarios;
    Printf.printf "wrote %d manifests to %s\n" (List.length scenarios) out
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Write each scenario's manifest to a file under --out.")
    Term.(const run $ quick $ zoo_all_term $ zoo_filter_term $ out)

let zoo_atlas_cmd =
  let run (config, quick) all filter json =
    let scenarios = zoo_select ~quick ~all ~filter in
    match Zoo.Atlas.rows config scenarios with
    | Error msg ->
        Printf.eprintf "zoo atlas: %s\n" msg;
        exit 1
    | Ok rows ->
        print_string
          (if json then Zoo.Atlas.render_json config rows else Zoo.Atlas.render config rows)
  in
  Cmd.v
    (Cmd.info "atlas"
       ~doc:
         "Run scenarios through the pooled predictability pipeline and print the quadrant \
          atlas: per-scenario CPI variance, RE, quadrant verdict and recommended sampling \
          technique.  --quick analyzes the representative subset at the reduced \
          configuration (add --all to keep the reduced configuration but cover every \
          scenario).  Output is bit-identical for every --jobs value.")
    Term.(const run $ config_quick_term $ zoo_all_term $ zoo_filter_term $ zoo_json_term)

let zoo_cmd =
  Cmd.group
    (Cmd.info "zoo"
       ~doc:
         "The generated workload zoo: 200+ deterministic scenarios (working-set sweeps, \
          OLTP/DSS mixes, drift schedules, key skews, multi-tenant interleavings) with \
          serialized manifests and a golden-compared quadrant atlas.")
    [ zoo_list_cmd; zoo_gen_cmd; zoo_atlas_cmd ]

(* ---- persistent result store ------------------------------------------ *)

let store_dir_term =
  Arg.(
    value & opt string "repro-store"
    & info [ "dir" ] ~docv:"DIR" ~doc:"Store directory (default: repro-store).")

let render_store_stats dir (s : Store.Cas.stats) =
  Printf.sprintf "store %s\n  %-12s %d\n  %-12s %d\n  %-12s %d\n" dir "entries" s.Store.Cas.entries
    "bytes" s.Store.Cas.bytes "quarantined" s.Store.Cas.quarantined

let cache_stats_cmd =
  let run dir =
    let cas = Store.Cas.open_dir ~dir in
    print_string (render_store_stats dir (Store.Cas.stats cas))
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print entry count, byte size and quarantine count of the store.")
    Term.(const run $ store_dir_term)

let cache_verify_cmd =
  let run dir =
    let cas = Store.Cas.open_dir ~dir in
    let ok, bad = Store.Cas.verify cas in
    Printf.printf "verified %d entries, %d bad\n" ok (List.length bad);
    List.iter (fun digest -> Printf.printf "  quarantined %s\n" digest) bad;
    if bad <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Re-validate every entry (trailer length, Adler-32, format version, key match).  \
          Invalid entries are quarantined; exits non-zero if any were found.")
    Term.(const run $ store_dir_term)

let cache_gc_cmd =
  let max_entries =
    Arg.(
      value
      & opt (some (bounded_int ~min:0 ~what:"MAX-ENTRIES")) None
      & info [ "max-entries" ] ~docv:"N" ~doc:"Keep at most $(docv) entries.")
  in
  let max_bytes =
    Arg.(
      value
      & opt (some (bounded_int ~min:0 ~what:"MAX-BYTES")) None
      & info [ "max-bytes" ] ~docv:"N" ~doc:"Keep at most $(docv) bytes of entries.")
  in
  let run dir max_entries max_bytes =
    let cas = Store.Cas.open_dir ~dir in
    let evicted = Store.Cas.gc cas ?max_entries ?max_bytes () in
    Printf.printf "evicted %d entries\n" (List.length evicted);
    List.iter (fun digest -> Printf.printf "  %s\n" digest) evicted
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:
         "Evict least-recently-used entries (by atime; ties and atime-less filesystems fall \
          back to digest order, so eviction is deterministic) until the store fits both \
          budgets.  With no budget flags this is a no-op.")
    Term.(const run $ store_dir_term $ max_entries $ max_bytes)

let cache_warm_cmd =
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"WORKLOAD"
          ~doc:"Catalog workloads to analyze into the store (default: all of them).")
  in
  let run config dir names =
    let names =
      match names with [] -> Array.to_list Workload.Catalog.names | names -> names
    in
    List.iter (fun n -> if Workload.Catalog.find_opt n = None then unknown_workload n) names;
    Store.Result_cache.attach ~dir;
    ignore (Fuzzy.Experiments.analyze_many config names);
    (match Store.Result_cache.counters () with
    | Some c ->
        Printf.printf "warmed %d workloads into %s (%d already stored, %d computed)\n"
          (List.length names) dir c.Store.Cas.hits c.Store.Cas.writes
    | None -> ());
    Store.Result_cache.detach ()
  in
  Cmd.v
    (Cmd.info "warm"
       ~doc:
         "Analyze workloads and persist the results, so a later `repro serve --store' (or \
          this command under the same configuration) starts hot.  Already-stored analyses \
          are not recomputed.")
    Term.(const run $ config_term $ store_dir_term $ names)

let cache_cmd =
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Manage the persistent analysis-result store: a content-addressed, append-only \
          directory of checksummed entries keyed by (code version, workload, analysis \
          configuration).  Corrupt entries are quarantined and recomputed, never trusted.")
    [ cache_stats_cmd; cache_verify_cmd; cache_gc_cmd; cache_warm_cmd ]

let () =
  let info =
    Cmd.info "repro" ~version:"1.0.0"
      ~doc:
        "Reproduce 'The Fuzzy Correlation between Code and Performance Predictability' \
         (MICRO-37, 2004) on simulated hardware."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            all_cmd;
            analyze_cmd;
            quadrant_cmd;
            cache_cmd;
            zoo_cmd;
            stream_cmd;
            serve_cmd;
            client_cmd;
            workloads_cmd;
            lint_cmd;
            graph_cmd;
          ]))
