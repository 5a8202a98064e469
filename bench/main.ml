(* Benchmark harness.  Five entry points, each read by a gate, a script
   or a CI job:

     main.exe           the core-kernel table (`make bench`);
     main.exe --json    the same kernels as JSON (`make bench-gate`,
                        `make bench-baseline` and CI's bench job);
     main.exe --serve   serve RPC round trips and sharded health
                        throughput, written to BENCH_serve.json (CI);
     main.exe --load --socket PATH [--clients N] [--requests N]
                        the load generator behind scripts/load_test.sh;
     main.exe --soak --socket PATH [--clients N] [--rps N]
                [--duration SECS] [--json]
                        the paced run behind scripts/soak_test.sh.

   Anything else prints one usage line on stderr and exits 2.  The
   paper's tables and figures are `repro all` and `repro run ID`; the
   per-layer cost of a whole analysis is perfbench's `--trace 1`. *)

(* --------------------- core kernels (bench gate) -------------------- *)

(* The CI benchmark gate (scripts/bench_gate.sh) compares these kernels
   against the committed BENCH_core.json baseline.  Each rep of a kernel
   is timed next to one rep of a calibration loop (a fixed pure-OCaml
   loop), and the gate compares the median of the per-rep ratios, so
   machine-speed differences between the baseline host and the CI
   runner, and load that comes and goes during a run, land on both sides
   of each ratio.  Medians are over an odd number of reps — robust to one
   slow outlier.  The schema is deterministic: fixed key order, fixed
   formatting, no timestamps or host names. *)

let synthetic_eipv_dataset ~rows ~features ~nnz =
  let rng = Stats.Rng.create 99 in
  let rs =
    Array.init rows (fun _ ->
        Stats.Sparse_vec.of_assoc
          (List.init nnz (fun _ ->
               (Stats.Rng.int rng features, float_of_int (1 + Stats.Rng.int rng 20)))))
  in
  let y = Array.map (fun r -> Stats.Sparse_vec.sum r +. Stats.Rng.float rng 5.0) rs in
  Rtree.Dataset.make ~rows:rs ~y

let elapsed_ms f =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (f ()));
  (Unix.gettimeofday () -. t0) *. 1e3

(* For an odd count, the 50th percentile is the middle sample. *)
let median samples = Stats.Describe.percentile samples 50.0

(* The median of [reps] timed runs of [f], after one untimed warm-up
   run. *)
let time_reps reps f =
  ignore (Sys.opaque_identity (f ()));
  median (Array.init reps (fun _ -> elapsed_ms f))

(* Fixed machine-speed probe: independent of any repro code, so a code
   regression can never hide inside the normaliser. *)
let calibration_kernel () =
  let a = Array.make 4096 0.0 in
  for i = 0 to 3_999_999 do
    let j = i land 4095 in
    Array.unsafe_set a j (Array.unsafe_get a j +. (float_of_int (i land 63) *. 0.5))
  done;
  a.(0)

type core_kernel = {
  ck_name : string;
  ck_reps : int;
  ck_median_ms : float;  (* optimized implementation *)
  ck_ref_median_ms : float option;  (* the test/oracle side, if any *)
  ck_calib_ratio : float;  (* median of rep / the calibration rep timed next to it *)
}

let ck_speedup k ref_ms = ref_ms /. k.ck_median_ms

(* One untimed warm-up of each side, then [reps] rounds of the reference
   rep (when the kernel has one), a calibration rep and the kernel rep,
   in that order: load that starts or stops during the run lands on both
   sides of each rep's ratio to its calibration, and of the speedup over
   the reference, instead of on one.  [prepare] builds a rep's input,
   untimed, and returns the rep to time. *)
let kernel name reps ?reference prepare =
  Option.iter (fun r -> ignore (Sys.opaque_identity (r ()))) reference;
  ignore (Sys.opaque_identity (calibration_kernel ()));
  ignore (Sys.opaque_identity (prepare () ()));
  let ref_ms = Array.make reps 0.0 and ms = Array.make reps 0.0 in
  let ratios = Array.make reps 0.0 in
  for i = 0 to reps - 1 do
    let rep = prepare () in
    Option.iter (fun r -> ref_ms.(i) <- elapsed_ms r) reference;
    let calib = elapsed_ms calibration_kernel in
    ms.(i) <- elapsed_ms rep;
    ratios.(i) <- ms.(i) /. calib
  done;
  {
    ck_name = name;
    ck_reps = reps;
    ck_median_ms = median ms;
    ck_ref_median_ms = Option.map (fun _ -> median ref_ms) reference;
    ck_calib_ratio = median ratios;
  }

(* One cold Driver.run of odb_c on itanium2 at the quick geometry: the
   simulator hot path (workload fill, sink hand-off, lib/march) that
   dominates a cold analyze.  Each rep simulates a freshly built model,
   so every rep does identical work; only Driver.run is timed.  It has
   no reference twin. *)
let driver_run () =
  let cfg = Fuzzy.Analysis.quick in
  let model =
    (Workload.Catalog.find "odb_c").Workload.Catalog.build ~seed:cfg.Fuzzy.Analysis.seed
      ~scale:cfg.Fuzzy.Analysis.scale
  in
  let cpu = March.Cpu.create cfg.Fuzzy.Analysis.machine in
  let rng = Stats.Rng.split_label cfg.Fuzzy.Analysis.seed "odb_c" in
  let samples = cfg.Fuzzy.Analysis.intervals * cfg.Fuzzy.Analysis.samples_per_interval in
  fun () -> Sampling.Driver.run ~period:cfg.Fuzzy.Analysis.period model ~cpu ~rng ~samples

(* The acceptance dataset: 128 intervals x 2000 features, 60 stored
   entries per row.  Rep counts are odd, so each median is one sample. *)
let run_core_kernels () =
  let ds = synthetic_eipv_dataset ~rows:128 ~features:2000 ~nnz:60 in
  let ready f () = f in
  let tree_build =
    kernel "tree_build" 9
      ~reference:(fun () -> Oracle.Tree.build ~max_leaves:50 ds)
      (ready (fun () -> Rtree.Tree.build ~max_leaves:50 ds))
  in
  let cv_curve =
    let rng () = Stats.Rng.create 7 in
    kernel "cv_curve" 5
      ~reference:(fun () -> Oracle.Cv.relative_error_curve ~folds:10 ~kmax:50 (rng ()) ds)
      (ready (fun () -> Rtree.Cv.relative_error_curve ~folds:10 ~kmax:50 (rng ()) ds))
  in
  let predict_k_sweep =
    let t = Rtree.Tree.build ~max_leaves:50 ds in
    let root = Rtree.Tree.root t in
    let kmax = 50 in
    let rows = ds.Rtree.Dataset.rows in
    let sweep_all () =
      let acc = ref 0.0 in
      Array.iter
        (fun r -> Rtree.Tree.sweep_k t ~kmax r ~f:(fun _ v -> acc := !acc +. v))
        rows;
      !acc
    in
    let predict_all () =
      let acc = ref 0.0 in
      Array.iter
        (fun r ->
          for k = 1 to kmax do
            acc := !acc +. Oracle.Tree.predict_k root ~k r
          done)
        rows;
      !acc
    in
    (* Sub-millisecond per pass: batch 50 passes per rep so gettimeofday
       resolution stays negligible. *)
    let batched f () =
      for _ = 1 to 49 do
        ignore (Sys.opaque_identity (f ()))
      done;
      f ()
    in
    kernel "predict_k_sweep" 9 ~reference:(batched predict_all) (ready (batched sweep_all))
  in
  [ tree_build; cv_curve; predict_k_sweep; kernel "driver_run" 7 driver_run ]

let core_json kernels =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"bench\": \"core_kernels\",\n";
  Buffer.add_string b "  \"schema_version\": 3,\n";
  Buffer.add_string b
    "  \"dataset\": {\"rows\": 128, \"features\": 2000, \"nnz_per_row\": 60, \"seed\": 99},\n";
  Buffer.add_string b "  \"kernels\": [\n";
  List.iteri
    (fun i k ->
      Printf.bprintf b "    {\"name\": %S, \"reps\": %d, \"median_ms\": %.4f" k.ck_name k.ck_reps
        k.ck_median_ms;
      Option.iter
        (fun ref_ms ->
          Printf.bprintf b ", \"ref_median_ms\": %.4f, \"speedup_vs_ref\": %.3f" ref_ms
            (ck_speedup k ref_ms))
        k.ck_ref_median_ms;
      Printf.bprintf b ", \"calibration_ratio\": %.4f}%s\n" k.ck_calib_ratio
        (if i = List.length kernels - 1 then "" else ","))
    kernels;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let print_core_kernels kernels =
  print_endline "core kernels (median wall-clock, optimized vs reference and vs calibration):";
  List.iter
    (fun k ->
      Printf.printf "  %-16s %10.2f ms" k.ck_name k.ck_median_ms;
      Option.iter
        (fun ref_ms ->
          Printf.printf "  ref %10.2f ms  speedup %5.2fx" ref_ms (ck_speedup k ref_ms))
        k.ck_ref_median_ms;
      Printf.printf "  %6.3fx calibration  (%d reps)\n" k.ck_calib_ratio k.ck_reps)
    kernels

(* ------------------------------ loadgen ----------------------------- *)

(* The one load generator, behind --load, --soak and the sharded-health
   kernel of --serve.  It forks [clients] processes against an already
   running server; each sends [script r] for r = 0 .. per_client - 1 over
   one connection.  [interval] > 0 paces each client on a fixed tick grid
   (a slow response eats into the following gap instead of stretching the
   run); 0 fires as fast as responses come back.  Every response is
   checked, not assumed: a typed admission refusal counts as [refused],
   any other error or a payload that differs from the first answer that
   client got to the same request counts as [mismatched].  A request with
   no answer is lost: [sent - got].  Children report through temp files;
   one that never reported lost all its requests.  Every mode runs alone
   in its process and spawns no worker domain, so the forks are safe. *)
type load = {
  sent : int;
  got : int;
  ok : int;
  refused : int;
  mismatched : int;
  latencies : float array;  (* us per answered request *)
  wall : float;  (* seconds from the first fork to the last exit *)
}

let drive ~address ~clients ~per_client ~interval ~script =
  let files =
    List.init clients (fun i -> Filename.temp_file "repro_load" (string_of_int i))
  in
  flush stdout;
  let w0 = Unix.gettimeofday () in
  let client file =
    let got = ref 0 and ok = ref 0 and refused = ref 0 and mismatched = ref 0 in
    let refs = Hashtbl.create 3 in
    let lat = Array.make per_client (-1.0) in
    (try
       Serve.Client.with_connection ~retry_for:200 address (fun conn ->
           let t0 = Unix.gettimeofday () in
           for r = 0 to per_client - 1 do
             let tick = t0 +. (float_of_int r *. interval) in
             let now = Unix.gettimeofday () in
             if tick > now then Unix.sleepf (tick -. now);
             let req = script r in
             let s = Unix.gettimeofday () in
             match Serve.Client.call_raw conn req with
             | Error _ -> ()
             | Ok payload -> (
                 incr got;
                 lat.(r) <- (Unix.gettimeofday () -. s) *. 1e6;
                 match Serve.Protocol.decode_response payload with
                 | Ok
                     (Serve.Protocol.Error
                        {
                          code =
                            ( Serve.Protocol.Rate_limited | Serve.Protocol.Too_large
                            | Serve.Protocol.Overloaded | Serve.Protocol.Timeout
                            | Serve.Protocol.Busy );
                          _;
                        }) ->
                     incr refused
                 | Ok (Serve.Protocol.Error _) | Error _ -> incr mismatched
                 | Ok _ -> (
                     match Hashtbl.find_opt refs req with
                     | None ->
                         Hashtbl.replace refs req payload;
                         incr ok
                     | Some reference ->
                         if String.equal reference payload then incr ok else incr mismatched))
           done)
     with Failure _ | Unix.Unix_error (_, _, _) | Sys_error _ -> ());
    let out = open_out file in
    Printf.fprintf out "%d %d %d %d\n" !got !ok !refused !mismatched;
    Array.iter (fun v -> if v >= 0.0 then Printf.fprintf out "%.1f\n" v) lat;
    close_out out;
    Unix._exit 0
  in
  let pids =
    List.map (fun file -> match Unix.fork () with 0 -> client file | pid -> pid) files
  in
  List.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids;
  let wall = Unix.gettimeofday () -. w0 in
  let latencies = ref [] in
  let got, ok, refused, mismatched =
    List.fold_left
      (fun ((g, o, r, m) as acc) file ->
        let ic = open_in file in
        let counts =
          match input_line ic with
          | line ->
              Scanf.sscanf line "%d %d %d %d" (fun a b c d -> (g + a, o + b, r + c, m + d))
          | exception End_of_file -> acc
        in
        (try
           while true do
             latencies := float_of_string (input_line ic) :: !latencies
           done
         with End_of_file -> ());
        close_in ic;
        Sys.remove file;
        counts)
      (0, 0, 0, 0) files
  in
  let latencies = Array.of_list !latencies in
  { sent = clients * per_client; got; ok; refused; mismatched; latencies; wall }

(* The --load and --soak request mix. *)
let health_analyze_quadrant r =
  match r mod 3 with
  | 0 -> Serve.Protocol.Health
  | 1 -> Serve.Protocol.Analyze "gzip"
  | _ -> Serve.Protocol.Quadrant "gzip"

(* ----------------------------- serve RPC ---------------------------- *)

(* Requests/sec and latency percentiles over a Unix socket, for a tiny
   request (health: pure framing + dispatch) vs a cached analysis
   (analyze on a warm server: framing + cache lookup + report render +
   a multi-KB response).  The server child runs a serial pool so the
   numbers isolate the RPC path, not analysis parallelism. *)

let fork_server ?(io_shards = 1) sock =
  match Unix.fork () with
  | 0 ->
      let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      Unix.dup2 devnull Unix.stdout;
      Unix.dup2 devnull Unix.stderr;
      let cfg =
        Serve.Server.config_of_analysis
          { Fuzzy.Analysis.quick with Fuzzy.Analysis.jobs = 1 }
      in
      let cfg = { cfg with Serve.Server.io_shards } in
      ignore (Serve.Server.run cfg (Serve.Server.Unix_socket sock));
      exit 0
  | pid -> pid

(* Sharded health throughput: [clients] forked client processes hammer a
   server child running [io_shards] IO domains, and every single response
   is verified — "zero lost responses" is checked, not assumed.  The
   shard speedup only materialises when the box has cores to spare, so
   the core count is recorded next to the numbers. *)
let sharded_health_rps ~io_shards ~clients ~per_client =
  let sock = Filename.temp_file "repro_serve_bench" ".sock" in
  Sys.remove sock;
  let pid = fork_server ~io_shards sock in
  let address = Serve.Server.Unix_socket sock in
  let finish () =
    (try Sys.remove sock with Sys_error _ -> ());
    ignore (Unix.waitpid [] pid)
  in
  let l =
    try
      (* Readiness probe, outside the timed window. *)
      Serve.Client.with_connection ~retry_for:200 address (fun conn ->
          match Serve.Client.call conn Serve.Protocol.Health with
          | Ok (Serve.Protocol.Health_ok _) -> ()
          | Ok r -> failwith (Serve.Protocol.render_response r)
          | Error m -> failwith m);
      let l =
        drive ~address ~clients ~per_client ~interval:0.0 ~script:(fun _ ->
            Serve.Protocol.Health)
      in
      Serve.Client.with_connection ~retry_for:200 address (fun conn ->
          ignore (Serve.Client.call conn Serve.Protocol.Shutdown));
      l
    with Failure m ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error (_, _, _) -> ());
      finish ();
      failwith ("sharded health: " ^ m)
  in
  finish ();
  if l.ok < l.sent then
    failwith
      (Printf.sprintf "sharded health: %d of %d responses lost, refused or mismatched"
         (l.sent - l.ok) l.sent);
  float_of_int l.sent /. l.wall

let run_serve_report () =
  let sock = Filename.temp_file "repro_serve_bench" ".sock" in
  Sys.remove sock;
  match fork_server sock with
  | pid -> (
      (* Idempotent: the failure path may run after the success path
         already reaped the serial server (the sharded phase runs its
         own servers afterwards). *)
      let finished = ref false in
      let finish () =
        if not !finished then begin
          finished := true;
          (try Sys.remove sock with Sys_error _ -> ());
          ignore (Unix.waitpid [] pid)
        end
      in
      try
        let conn = Serve.Client.connect ~retry_for:200 (Serve.Server.Unix_socket sock) in
        let call req =
          match Serve.Client.call conn req with
          | Ok resp when not (Serve.Protocol.is_error resp) -> ()
          | Ok resp -> failwith (Serve.Protocol.render_response resp)
          | Error m -> failwith m
        in
        (* Warm the server's analysis cache: the analyze kernel measures
           RPC + render on a cache hit, not the first analysis. *)
        call (Serve.Protocol.Analyze "gzip");
        let kernel name req n =
          let lat = Array.make n 0.0 in
          let w0 = Unix.gettimeofday () in
          for i = 0 to n - 1 do
            let s = Unix.gettimeofday () in
            call req;
            lat.(i) <- (Unix.gettimeofday () -. s) *. 1e6
          done;
          let dt = Unix.gettimeofday () -. w0 in
          ( name,
            n,
            float_of_int n /. dt,
            Stats.Describe.percentile lat 50.0,
            Stats.Describe.percentile lat 99.0 )
        in
        let rows =
          [
            kernel "health_small" Serve.Protocol.Health 2_000;
            kernel "analyze_cached" (Serve.Protocol.Analyze "gzip") 300;
          ]
        in
        call Serve.Protocol.Shutdown;
        Serve.Client.close conn;
        finish ();
        (* Shard scaling: same health request, 8 concurrent client
           processes, one server per shard count.  Each server child
           spawns its own IO domains, which is fork-safe here because
           the domains live only in the child. *)
        let clients = 8 and per_client = 1_000 in
        let sharded =
          List.map
            (fun io_shards ->
              (io_shards, sharded_health_rps ~io_shards ~clients ~per_client))
            [ 1; 4 ]
        in
        let cores = Domain.recommended_domain_count () in
        print_endline "serve RPC (unix socket, serial server):";
        List.iter
          (fun (name, n, rps, p50, p99) ->
            Printf.printf "  %-16s %9.0f req/s  p50 %8.1f us  p99 %8.1f us  (%d requests)\n"
              name rps p50 p99 n)
          rows;
        Printf.printf
          "serve health under load (%d clients x %d requests, zero lost, %d core(s)):\n"
          clients per_client cores;
        List.iter
          (fun (io_shards, rps) ->
            Printf.printf "  io_shards=%d      %9.0f req/s\n" io_shards rps)
          sharded;
        (match sharded with
        | [ (_, base); (_, wide) ] ->
            Printf.printf "  shard speedup %9.2fx\n" (wide /. base)
        | _ -> ());
        let oc = open_out "BENCH_serve.json" in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            Printf.fprintf oc
              "{\n  \"bench\": \"serve_rpc\",\n  \"transport\": \"unix_socket\",\n  \"kernels\": [\n";
            List.iteri
              (fun i (name, n, rps, p50, p99) ->
                Printf.fprintf oc
                  "    {\"name\": %S, \"requests\": %d, \"rps\": %.1f, \"p50_us\": %.1f, \"p99_us\": %.1f}%s\n"
                  name n rps p50 p99
                  (if i = 1 then "" else ","))
              rows;
            Printf.fprintf oc "  ],\n  \"cores\": %d,\n  \"sharded_health\": [\n"
              cores;
            List.iteri
              (fun i (io_shards, rps) ->
                Printf.fprintf oc
                  "    {\"io_shards\": %d, \"clients\": %d, \"requests\": %d, \"rps\": %.1f, \"lost\": 0}%s\n"
                  io_shards clients (clients * per_client) rps
                  (if i = List.length sharded - 1 then "" else ","))
              sharded;
            Printf.fprintf oc "  ]\n}\n");
        Printf.printf "[serve phase: wrote BENCH_serve.json]\n%!"
      with Failure m ->
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error (_, _, _) -> ());
        finish ();
        Printf.eprintf "serve RPC bench failed: %s\n%!" m;
        exit 1)

(* ------------------------------ arguments --------------------------- *)

let usage =
  "usage: main.exe [--json | --serve | --load --socket PATH [--clients N] [--requests N] | \
   --soak --socket PATH [--clients N] [--rps N] [--duration SECS] [--json]]"

(* One line on stderr, exit 2: a mistyped flag must not run anything. *)
let refuse fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("bench: " ^ m ^ "; " ^ usage);
      exit 2)
    fmt

(* A mode's flags as an association list: each of [valued] takes one
   value, each of [switches] none.  Any other word, a flag without its
   value and a repeated flag are refused. *)
let parse_flags ~valued ~switches args =
  let rec go acc = function
    | [] -> acc
    | k :: _ when List.mem_assoc k acc -> refuse "%s given twice" k
    | k :: rest when List.mem k switches -> go ((k, "") :: acc) rest
    | k :: rest when List.mem k valued -> (
        match rest with
        | v :: rest when not (String.starts_with ~prefix:"--" v) -> go ((k, v) :: acc) rest
        | _ -> refuse "%s needs a value" k)
    | k :: _ -> refuse "unknown argument %s" k
  in
  go [] args

let positive flags name default =
  match List.assoc_opt name flags with
  | None -> default
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 1 -> n
      | Some _ | None -> refuse "%s expects a positive integer, got %S" name v)

let socket flags =
  match List.assoc_opt "--socket" flags with
  | Some s -> Serve.Server.Unix_socket s
  | None -> refuse "--socket PATH required"

(* ------------------------------ load/soak ---------------------------- *)

(* `--load`: each client cycles health/analyze/quadrant as fast as the
   server answers.  Prints one summary line and exits non-zero on any
   lost or mismatched response — refusals are fine (the script runs a
   phase with rate limiting on and expects some), silent corruption is
   not. *)
let run_load args =
  let flags = parse_flags ~valued:[ "--socket"; "--clients"; "--requests" ] ~switches:[] args in
  let address = socket flags in
  let clients = positive flags "--clients" 8 in
  let per_client = positive flags "--requests" 60 in
  let l = drive ~address ~clients ~per_client ~interval:0.0 ~script:health_analyze_quadrant in
  let lost = l.sent - l.got in
  Printf.printf
    "load: clients=%d requests/client=%d sent=%d got=%d ok=%d refused=%d mismatched=%d lost=%d\n%!"
    clients per_client l.sent l.got l.ok l.refused l.mismatched lost;
  if lost > 0 || l.mismatched > 0 then begin
    Printf.printf "load: FAIL\n%!";
    exit 1
  end

(* `--soak`: same mix and checks as --load, but each client is paced so
   the offered load is a target requests/sec held for a target duration
   — a soak, not a burst — so the request count follows from --rps and
   --duration.  Latencies merged across clients give p50/p99, and the
   run fails on any lost or mismatched response.  The JSON report
   carries the calibration figure and the core count so
   scripts/soak_test.sh can hold p99 to a machine-normalized budget from
   the committed BENCH_soak.json baseline. *)
let run_soak args =
  let flags =
    parse_flags
      ~valued:[ "--socket"; "--clients"; "--rps"; "--duration" ]
      ~switches:[ "--json" ] args
  in
  let address = socket flags in
  let clients = positive flags "--clients" 4 in
  let rps = positive flags "--rps" 200 in
  let duration = positive flags "--duration" 5 in
  let json = List.mem_assoc "--json" flags in
  let per_client = max 1 (rps * duration / clients) in
  let interval = float_of_int duration /. float_of_int per_client in
  (* Machine-speed probe before the forks, outside the paced window. *)
  let calib_ms = time_reps 5 calibration_kernel in
  let l = drive ~address ~clients ~per_client ~interval ~script:health_analyze_quadrant in
  let p50, p99 =
    if Array.length l.latencies = 0 then (0.0, 0.0)
    else (Stats.Describe.percentile l.latencies 50.0, Stats.Describe.percentile l.latencies 99.0)
  in
  let lost = l.sent - l.got in
  let achieved = float_of_int l.got /. l.wall in
  let cores = Domain.recommended_domain_count () in
  let summary =
    Printf.sprintf
      "soak: clients=%d rps=%d duration=%ds sent=%d got=%d ok=%d refused=%d \
       mismatched=%d lost=%d p50=%.1fus p99=%.1fus achieved=%.0frps cores=%d"
      clients rps duration l.sent l.got l.ok l.refused l.mismatched lost p50 p99 achieved
      cores
  in
  if json then begin
    (* Gate mode: JSON alone on stdout, the human line on stderr. *)
    Printf.printf
      "{\n\
      \  \"bench\": \"soak\",\n\
      \  \"schema_version\": 1,\n\
      \  \"clients\": %d,\n\
      \  \"rps_target\": %d,\n\
      \  \"duration_s\": %d,\n\
      \  \"sent\": %d,\n\
      \  \"got\": %d,\n\
      \  \"ok\": %d,\n\
      \  \"refused\": %d,\n\
      \  \"mismatched\": %d,\n\
      \  \"lost\": %d,\n\
      \  \"rps_achieved\": %.1f,\n\
      \  \"p50_us\": %.1f,\n\
      \  \"p99_us\": %.1f,\n\
      \  \"calibration_ms\": %.4f,\n\
      \  \"cores\": %d\n\
       }\n"
      clients rps duration l.sent l.got l.ok l.refused l.mismatched lost achieved p50 p99
      calib_ms cores;
    Printf.eprintf "%s\n%!" summary
  end
  else print_endline summary;
  if lost > 0 || l.mismatched > 0 then begin
    Printf.eprintf "soak: FAIL (lost=%d mismatched=%d)\n%!" lost l.mismatched;
    exit 1
  end

(* -------------------------------- main ------------------------------ *)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> print_core_kernels (run_core_kernels ())
  | [ "--json" ] ->
      (* Gate mode: JSON on stdout and nothing else
         (`bench/main.exe --json > BENCH_core.fresh.json`). *)
      print_string (core_json (run_core_kernels ()))
  | [ "--serve" ] -> run_serve_report ()
  | "--load" :: args -> run_load args
  | "--soak" :: args -> run_soak args
  | ("--json" | "--serve") :: arg :: _ | arg :: _ -> refuse "unknown argument %s" arg
