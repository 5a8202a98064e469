(* CLI argument handling, pinned by executing the real binary: bad flags
   and bad option values must produce a usage error and a non-zero exit,
   never be silently ignored.  (Historically `--jobs 0` fell back to the
   default without a word; cmdliner now rejects it at parse time.) *)

let exe = Filename.concat (Filename.concat ".." "bin") "repro.exe"
let bench_exe = Filename.concat (Filename.concat ".." "bench") "main.exe"

(* Run a binary, returning (exit code, combined stdout+stderr).  With
   [timeout], a binary that accepts what it should refuse (a server that
   starts serving) is killed after that many seconds instead of hanging
   the suite. *)
let run ?timeout exe args =
  let out = Filename.temp_file "repro-cli" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let cmd =
        Printf.sprintf "%s%s %s > %s 2>&1"
          (match timeout with Some s -> Printf.sprintf "timeout %d " s | None -> "")
          (Filename.quote exe)
          (String.concat " " (List.map Filename.quote args))
          (Filename.quote out)
      in
      let code = Sys.command cmd in
      let ic = open_in_bin out in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (code, text))

let run_repro ?timeout args = run ?timeout exe args

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  nn = 0
  ||
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let check_rejected ~ctx ~expect (code, text) =
  Alcotest.(check bool) (ctx ^ ": non-zero exit") true (code <> 0);
  Alcotest.(check bool)
    (Printf.sprintf "%s: mentions %S in %S" ctx expect text)
    true (contains text expect);
  (* cmdliner's errors always point at the usage line. *)
  Alcotest.(check bool) (ctx ^ ": prints usage") true
    (contains text "Usage" || contains text "usage")

let test_unknown_flag_rejected () =
  check_rejected ~ctx:"unknown flag" ~expect:"--frobnicate"
    (run_repro [ "analyze"; "--frobnicate"; "gzip" ]);
  check_rejected ~ctx:"unknown subcommand flag" ~expect:"--bogus"
    (run_repro [ "cache"; "stats"; "--bogus" ])

let test_bad_option_values_rejected () =
  check_rejected ~ctx:"--jobs 0" ~expect:"JOBS"
    (run_repro [ "analyze"; "--quick"; "--jobs"; "0"; "gzip" ]);
  check_rejected ~ctx:"--jobs -3" ~expect:"JOBS"
    (run_repro [ "analyze"; "--quick"; "--jobs=-3"; "gzip" ]);
  check_rejected ~ctx:"--jobs garbage" ~expect:"JOBS"
    (run_repro [ "analyze"; "--quick"; "--jobs"; "two"; "gzip" ]);
  check_rejected ~ctx:"--intervals 0" ~expect:"INTERVALS"
    (run_repro [ "analyze"; "--quick"; "--intervals"; "0"; "gzip" ]);
  (* Cross-validation needs two folds, so at least two intervals. *)
  check_rejected ~ctx:"--intervals 1" ~expect:"INTERVALS"
    (run_repro [ "analyze"; "--quick"; "--intervals"; "1"; "gzip" ]);
  (* A workload size must be finite and > 0. *)
  List.iter
    (fun v ->
      check_rejected ~ctx:("--scale " ^ v) ~expect:"SCALE"
        (run_repro [ "analyze"; "--quick"; "--scale=" ^ v; "gzip" ]))
    [ "nan"; "-1"; "inf"; "-inf"; "0"; "big" ];
  check_rejected ~ctx:"--reservoir 0" ~expect:"RESERVOIR"
    (run_repro [ "stream"; "--quick"; "--reservoir"; "0"; "gzip" ]);
  check_rejected ~ctx:"--window 1" ~expect:"WINDOW"
    (run_repro [ "stream"; "--quick"; "--window"; "1"; "gzip" ]);
  (* A port outside 0..65535 would be taken modulo 65536 by the socket
     address (65537 serves on port 1).  serve and client share --port. *)
  let serve args = run_repro ~timeout:10 ("serve" :: "--quick" :: args) in
  check_rejected ~ctx:"serve --port 65537" ~expect:"PORT" (serve [ "--port"; "65537" ]);
  check_rejected ~ctx:"serve --port -1" ~expect:"PORT" (serve [ "--port=-1" ]);
  check_rejected ~ctx:"serve --metrics-port 70000" ~expect:"METRICS-PORT"
    (serve [ "--port"; "0"; "--metrics-port"; "70000" ]);
  check_rejected ~ctx:"serve --metrics-port 65536" ~expect:"METRICS-PORT"
    (serve [ "--port"; "0"; "--metrics-port=65536" ]);
  check_rejected ~ctx:"client --port 65537" ~expect:"PORT"
    (run_repro [ "client"; "--port"; "65537"; "health" ]);
  (* Refused, not clamped: --queue 0 and --timeout 0 stay valid (the
     backpressure tests use them), and a NaN deadline would never
     expire. *)
  check_rejected ~ctx:"serve --queue -5" ~expect:"QUEUE" (serve [ "--queue=-5" ]);
  check_rejected ~ctx:"serve --max-conns 0" ~expect:"MAX-CONNS" (serve [ "--max-conns"; "0" ]);
  check_rejected ~ctx:"serve --timeout -2" ~expect:"TIMEOUT" (serve [ "--timeout=-2" ]);
  check_rejected ~ctx:"serve --timeout nan" ~expect:"TIMEOUT" (serve [ "--timeout"; "nan" ])

(* The bench harness has no cmdliner: it must still refuse what it does
   not know with one usage line and exit 2, rather than run its default
   mode on a typo or fall back to a default for a flag without a value.
   The timeout stops a binary that runs anyway. *)
let test_bench_refuses () =
  let sock = Filename.temp_file "repro-cli" ".sock" in
  Sys.remove sock;
  List.iter
    (fun (args, expect) ->
      let ctx = "bench " ^ String.concat " " args in
      let code, text = run ~timeout:10 bench_exe args in
      Alcotest.(check int) (ctx ^ ": exit 2") 2 code;
      Alcotest.(check bool) (Printf.sprintf "%s: mentions %S in %S" ctx expect text) true
        (contains text expect);
      Alcotest.(check bool) (ctx ^ ": usage") true (contains text "usage:");
      Alcotest.(check int) (ctx ^ ": one line") 1
        (List.length (String.split_on_char '\n' (String.trim text))))
    [
      ([ "--sotre" ], "--sotre");
      ([ "--load"; "--socket"; sock; "--clients" ], "--clients needs a value");
      ([ "--load"; "--clients"; "2" ], "--socket PATH required");
    ]

let test_valid_invocations_still_work () =
  let code, text = run_repro [ "workloads" ] in
  Alcotest.(check int) "workloads exits 0" 0 code;
  Alcotest.(check bool) "lists gzip" true (contains text "gzip");
  let code, _ = run_repro [ "cache"; "gc"; "--dir"; "_cli-test-store" ] in
  Alcotest.(check int) "cache gc (no budgets) exits 0" 0 code

(* No server listening: one diagnostic line and exit 1, not an uncaught
   Unix_error from inside cmdliner. *)
let test_client_without_server () =
  let sock = Filename.temp_file "repro-cli" ".sock" in
  Sys.remove sock;
  let code, text = run_repro [ "client"; "--socket"; sock; "health" ] in
  Alcotest.(check int) "exit 1" 1 code;
  Alcotest.(check bool) (Printf.sprintf "no internal error in %S" text) false
    (contains text "internal error");
  Alcotest.(check bool) (Printf.sprintf "names the address in %S" text) true
    (contains text ("repro-client: cannot connect to unix:" ^ sock ^ ": "))

(* A --root that is not a directory must not read as an empty, clean
   tree: one line on stderr and a non-zero exit, for a missing path and
   for a regular file. *)
let test_root_refused args () =
  let missing = Filename.temp_file "repro-cli" ".root" in
  Sys.remove missing;
  let file = Filename.temp_file "repro-cli" ".root" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      List.iter
        (fun root ->
          let code, text = run_repro (args @ [ "--root"; root ]) in
          let ctx = String.concat " " args ^ " --root " ^ root in
          Alcotest.(check bool) (ctx ^ ": non-zero exit") true (code <> 0);
          Alcotest.(check string) (ctx ^ ": one line")
            (Printf.sprintf "repro: --root %s: not a directory\n" root)
            text)
        [ missing; file ])

let () =
  Alcotest.run "cli"
    [
      ( "argument validation",
        [
          Alcotest.test_case "unknown flags rejected" `Quick test_unknown_flag_rejected;
          Alcotest.test_case "bad option values rejected" `Quick
            test_bad_option_values_rejected;
          Alcotest.test_case "valid invocations unaffected" `Quick
            test_valid_invocations_still_work;
          Alcotest.test_case "bench refuses unknown arguments" `Quick test_bench_refuses;
        ] );
      ( "root",
        [
          Alcotest.test_case "lint refuses a non-directory" `Quick (test_root_refused [ "lint" ]);
          Alcotest.test_case "graph refuses a non-directory" `Quick
            (test_root_refused [ "graph" ]);
        ] );
      ( "client",
        [ Alcotest.test_case "no server: one line, exit 1" `Quick test_client_without_server ]
      );
    ]
