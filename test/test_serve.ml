(* lib/serve: wire-format properties, protocol codec roundtrips for every
   message, incremental session framing, and end-to-end determinism of
   the analysis server (concurrent clients at --jobs 4 receive responses
   byte-identical to --jobs 1 and to the offline CLI). *)

module W = Serve.Wire
module P = Serve.Protocol

(* The servers under test are separate processes of the built CLI: the
   test binary itself never forks after spawning domains (fork only
   duplicates the calling thread), and the in-test analysis below always
   runs at jobs=1, which spawns none. *)
let repro_exe =
  (* cwd is _build/default/test under `dune runtest`, the project root
     under `dune exec test/test_serve.exe`. *)
  List.find Sys.file_exists [ "../bin/repro.exe"; "_build/default/bin/repro.exe" ]

let acfg = { Fuzzy.Analysis.quick with Fuzzy.Analysis.jobs = 1 }

(* ------------------------------- wire ------------------------------- *)

(* The two decoders that ship: the server's incremental [Session]
   (which answers [Ok None] while a frame is incomplete) and the blocking
   [Wire.read_frame] the client uses, here reading from a pipe.  Every
   frame test runs both. *)
let session_frame ?(max_payload = W.default_max_payload) frame =
  let fd = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let sess = Serve.Session.create ~id:0 ~peer:"test" fd in
      Serve.Session.feed sess (Bytes.of_string frame) (String.length frame);
      Serve.Session.next_frame sess ~max_payload)

let pipe_frame ?max_payload frame =
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () -> Unix.close r)
    (fun () ->
      let rec write_all off =
        if off < String.length frame then
          write_all (off + Unix.write_substring w frame off (String.length frame - off))
      in
      write_all 0;
      Unix.close w;
      W.read_frame ?max_payload r)

let check_wire_error name expected = function
  | Stdlib.Error e ->
      Alcotest.(check string) name expected (W.error_to_string e)
  | Ok _ -> Alcotest.fail (name ^ ": expected a wire error")

let test_frame_rejections () =
  let frame = W.encode "hello wire" in
  (match (session_frame frame, pipe_frame frame) with
  | Ok (Some p), Ok q ->
      Alcotest.(check string) "session roundtrip" "hello wire" p;
      Alcotest.(check string) "read_frame roundtrip" "hello wire" q
  | _ -> Alcotest.fail "valid frame rejected");
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    Bytes.to_string b
  in
  (* Each rejection, as both decoders must report it. *)
  let rejects name ?max_payload bytes expected =
    check_wire_error (name ^ " (session)") (W.error_to_string expected)
      (session_frame ?max_payload bytes);
    check_wire_error (name ^ " (read_frame)") (W.error_to_string expected)
      (pipe_frame ?max_payload bytes)
  in
  rejects "bad magic" (flip frame 0) W.Bad_magic;
  rejects "foreign version" (flip frame 5) (W.Bad_version (W.version lxor 0xff));
  rejects "payload corruption" (flip frame (W.header_len + 2)) W.Bad_checksum;
  rejects "oversized" ~max_payload:4 frame (W.Oversized 10);
  (* A short frame is more bytes to come for the session, and EOF
     mid-frame for the blocking reader. *)
  List.iter
    (fun (name, bytes) ->
      (match session_frame bytes with
      | Ok None -> ()
      | _ -> Alcotest.fail (name ^ ": session did not wait for more bytes"));
      check_wire_error (name ^ " (read_frame)") (W.error_to_string W.Truncated)
        (pipe_frame bytes))
    [ ("short frame", String.sub frame 0 (String.length frame - 1)); ("no header", "FZ") ]

let test_primitive_extremes () =
  let enc f =
    let e = W.Enc.create () in
    f e;
    W.Enc.contents e
  in
  List.iter
    (fun v ->
      let d = W.Dec.of_string (enc (fun e -> W.Enc.int e v)) in
      Alcotest.(check int) "int extreme" v (W.Dec.int d);
      W.Dec.expect_end d)
    [ 0; 1; -1; max_int; min_int; 0xdeadbeef ];
  List.iter
    (fun v ->
      let d = W.Dec.of_string (enc (fun e -> W.Enc.float e v)) in
      let back = W.Dec.float d in
      Alcotest.(check int64) "float bits exact" (Int64.bits_of_float v)
        (Int64.bits_of_float back);
      W.Dec.expect_end d)
    [ 0.0; -0.0; 1.5; -1.5e308; 4.9e-324; infinity; neg_infinity; nan ];
  let s = "with \x00 nul and \n newline" in
  let d = W.Dec.of_string (enc (fun e -> W.Enc.string e s)) in
  Alcotest.(check string) "string with nul/newline" s (W.Dec.string d);
  W.Dec.expect_end d

let qcheck_frame_roundtrip =
  QCheck2.Test.make ~name:"wire frame roundtrip" ~count:300
    QCheck2.Gen.(string_size (int_range 0 2048))
    (fun payload ->
      let frame = W.encode payload in
      session_frame frame = Ok (Some payload) && pipe_frame frame = Ok payload)

(* ----------------------------- protocol ----------------------------- *)

(* Finite floats only: codec equality is structural, and NaN <> NaN. *)
let gen_float =
  QCheck2.Gen.(
    map
      (fun (a, b) -> float_of_int a /. (1.0 +. float_of_int (abs b)))
      (pair (int_range (-1_000_000) 1_000_000) (int_range 0 10_000)))

let gen_name = QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 0 12))

let gen_sample =
  QCheck2.Gen.(
    map
      (fun ((eip, tid, instrs, os_instrs), cycles, (w, f, e, o), regions) ->
        {
          Sampling.Driver.eip;
          tid;
          instrs;
          cycles;
          breakdown = { March.Breakdown.work = w; fe = f; exe = e; other = o };
          os_instrs;
          region_instrs = Array.of_list regions;
        })
      (quad
         (quad (int_range 0 0xffffff) (int_range 0 64) (int_range 0 100_000)
            (int_range 0 100_000))
         gen_float
         (quad gen_float gen_float gen_float gen_float)
         (list_size (int_range 0 6) (pair (int_range 0 40) (int_range 0 10_000)))))

let gen_request =
  QCheck2.Gen.(
    oneof
      [
        map (fun w -> P.Analyze w) gen_name;
        map (fun w -> P.Quadrant w) gen_name;
        map (fun w -> P.Re_curve w) gen_name;
        map (fun w -> P.Ingest_open w) gen_name;
        map (fun ss -> P.Ingest_feed ss) (list_size (int_range 0 5) gen_sample);
        return P.Ingest_finalize;
        return P.Stats;
        return P.Health;
        return P.Shutdown;
      ])

let gen_curve =
  QCheck2.Gen.(
    map
      (fun (ks, es, res, variance) ->
        {
          Rtree.Cv.k_values = Array.of_list ks;
          e = Array.of_list es;
          re = Array.of_list res;
          variance;
        })
      (quad
         (list_size (int_range 0 12) (int_range 1 64))
         (list_size (int_range 0 12) gen_float)
         (list_size (int_range 0 12) gen_float)
         gen_float))

(* Every field is an independent draw, folded over the same table the
   codec uses ("pinned stats frame decodes" checks the setters
   themselves). *)
let gen_snapshot =
  QCheck2.Gen.(
    let pairs = list_size (int_range 0 4) (pair gen_name (int_range 0 9999)) in
    List.fold_left
      (fun gen (r : Serve.Metrics.row) ->
        match r.field with
        | Scalar { set; _ } -> map2 set gen (int_range 0 9999)
        | Labelled { set; _ } -> map2 set gen pairs
        | Live _ | Latency _ -> gen)
      (return Serve.Metrics.zero) Serve.Metrics.table)

let gen_error_code =
  QCheck2.Gen.oneofl
    [
      P.Overloaded;
      P.Timeout;
      P.Busy;
      P.Bad_request;
      P.Unknown_workload;
      P.Failed;
      P.Rate_limited;
      P.Too_large;
    ]

let gen_response =
  QCheck2.Gen.(
    oneof
      [
        map (fun t -> P.Report t) (string_size (int_range 0 500));
        map
          (fun ((w, q, t), (v, re), k) ->
            P.Quadrant_verdict
              {
                workload = w;
                quadrant = Fuzzy.Quadrant.of_int q;
                cpi_variance = v;
                re_kopt = re;
                kopt = k;
                technique = t;
              })
          (triple
             (triple gen_name (int_range 1 4) gen_name)
             (pair gen_float gen_float) (int_range 1 64));
        map (fun (w, c) -> P.Curve { workload = w; curve = c }) (pair gen_name gen_curve);
        map (fun ls -> P.Verdicts ls) (list_size (int_range 0 5) (string_size (int_range 0 80)));
        map (fun s -> P.Ingest_ack s) gen_name;
        map (fun t -> P.Ingest_final t) (string_size (int_range 0 200));
        map (fun s -> P.Stats_snapshot s) gen_snapshot;
        map
          (fun (v, j, w) -> P.Health_ok { version = v; jobs = j; workloads = w })
          (triple (int_range 0 100) (int_range 1 64) (int_range 0 100));
        return P.Shutdown_ack;
        map
          (fun (code, m) -> P.Error { code; message = m })
          (pair gen_error_code (string_size (int_range 0 120)));
      ])

let qcheck_request_roundtrip =
  QCheck2.Test.make ~name:"protocol request roundtrip" ~count:300 gen_request
    (fun req -> P.decode_request (P.encode_request req) = Ok req)

let qcheck_response_roundtrip =
  QCheck2.Test.make ~name:"protocol response roundtrip" ~count:300 gen_response
    (fun resp -> P.decode_response (P.encode_response resp) = Ok resp)

let qcheck_request_truncation =
  QCheck2.Test.make ~name:"truncated request payload rejected" ~count:200
    QCheck2.Gen.(pair gen_request (int_range 1 8))
    (fun (req, cut) ->
      let p = P.encode_request req in
      let cut = min cut (String.length p) in
      QCheck2.assume (cut > 0);
      match P.decode_request (String.sub p 0 (String.length p - cut)) with
      | Stdlib.Error _ -> true
      | Ok _ -> false)

let test_protocol_malformed () =
  let is_err name = function
    | Stdlib.Error _ -> ()
    | Ok _ -> Alcotest.fail (name ^ ": malformed payload accepted")
  in
  is_err "empty request" (P.decode_request "");
  is_err "bad request tag" (P.decode_request "\xff");
  is_err "trailing bytes" (P.decode_request (P.encode_request P.Stats ^ "\x00"));
  is_err "empty response" (P.decode_response "");
  is_err "bad response tag" (P.decode_response "\xee");
  is_err "trailing bytes in response"
    (P.decode_response (P.encode_response P.Shutdown_ack ^ "zz"))

(* A crafted 8-byte length near max_int must not overflow the decoder's
   bounds check: [pos + n] would wrap negative and slip past a naive
   guard, and the resulting [String.sub] exception would previously
   escape [decode_request] and crash the server's IO thread. *)
let test_hostile_lengths () =
  let is_err name = function
    | Stdlib.Error _ -> ()
    | Ok _ -> Alcotest.fail (name ^ ": hostile length accepted")
  in
  let near_max = "\x3f\xff\xff\xff\xff\xff\xff\xff" in
  (* Int64 0x7FFF... truncates to a negative OCaml int. *)
  let negative = "\x7f\xff\xff\xff\xff\xff\xff\xff" in
  List.iter
    (fun (name, payload) -> is_err name (P.decode_request payload))
    [
      ("near-max analyze string length", "\x00" ^ near_max);
      ("negative analyze string length", "\x00" ^ negative);
      ("near-max ingest_feed list length", "\x04" ^ near_max);
      ("negative ingest_feed list length", "\x04" ^ negative);
    ];
  is_err "near-max report string length" (P.decode_response ("\x00" ^ near_max));
  (* The raw decoder must raise the typed error, not Invalid_argument. *)
  match W.Dec.string (W.Dec.of_string near_max) with
  | exception W.Decode_error _ -> ()
  | exception e -> Alcotest.fail ("expected Decode_error, got " ^ Printexc.to_string e)
  | _ -> Alcotest.fail "hostile string length decoded"

(* ------------------------------ session ----------------------------- *)

let with_null_fd f =
  let fd = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)

let test_session_incremental () =
  with_null_fd (fun fd ->
      let sess = Serve.Session.create ~id:0 ~peer:"test" fd in
      let payload = P.encode_request (P.Analyze "gcc") in
      let frame = W.encode payload in
      String.iteri
        (fun i c ->
          (* Before the last byte the decoder must keep asking for more. *)
          if i < String.length frame - 1 then begin
            match Serve.Session.next_frame sess ~max_payload:W.default_max_payload with
            | Ok None -> ()
            | Ok (Some _) -> Alcotest.fail "frame completed early"
            | Error e -> Alcotest.fail (W.error_to_string e)
          end;
          Serve.Session.feed sess (Bytes.make 1 c) 1)
        frame;
      (match Serve.Session.next_frame sess ~max_payload:W.default_max_payload with
      | Ok (Some p) -> Alcotest.(check string) "byte-at-a-time payload" payload p
      | Ok None -> Alcotest.fail "frame not extracted"
      | Error e -> Alcotest.fail (W.error_to_string e));
      (* Two frames in one feed come out one at a time, in order. *)
      let p2 = P.encode_request P.Health in
      let both = Bytes.of_string (frame ^ W.encode p2) in
      Serve.Session.feed sess both (Bytes.length both);
      (match Serve.Session.next_frame sess ~max_payload:W.default_max_payload with
      | Ok (Some p) -> Alcotest.(check string) "first of two" payload p
      | Ok None | Error _ -> Alcotest.fail "first frame lost");
      match Serve.Session.next_frame sess ~max_payload:W.default_max_payload with
      | Ok (Some p) -> Alcotest.(check string) "second of two" p2 p
      | Ok None | Error _ -> Alcotest.fail "second frame lost")

let test_session_oversized () =
  with_null_fd (fun fd ->
      let sess = Serve.Session.create ~id:1 ~peer:"test" fd in
      let frame = Bytes.of_string (W.encode (String.make 100 'x')) in
      Serve.Session.feed sess frame (Bytes.length frame);
      match Serve.Session.next_frame sess ~max_payload:10 with
      | Error (W.Oversized 100) -> ()
      | Error e -> Alcotest.fail ("expected Oversized, got " ^ W.error_to_string e)
      | Ok _ -> Alcotest.fail "oversized frame accepted")

(* Once a session is closing nothing decodes its input, so what a peer
   keeps sending (without reading its answers) must be dropped, not
   buffered. *)
let test_session_closing_drops_input () =
  with_null_fd (fun fd ->
      let sess = Serve.Session.create ~id:2 ~peer:"test" fd in
      let frame = W.encode (P.encode_request (P.Analyze "gcc")) in
      let half = Bytes.of_string (String.sub frame 0 (String.length frame / 2)) in
      Serve.Session.feed sess half (Bytes.length half);
      Serve.Session.mark_close sess;
      let mib = Bytes.make (1 lsl 20) 'x' in
      Serve.Session.feed sess mib (Bytes.length mib);
      Alcotest.(check int) "buffered input unchanged" (Bytes.length half)
        (snd (Serve.Session.input sess)))

(* ---------------------------- e2e harness --------------------------- *)

(* [nofile] runs the server under `ulimit -n nofile`, through sh, whose
   exec leaves the server with sh's pid.  [env] entries go in front of
   this process's environment, so they win; [errfile], if given,
   receives the server's stderr. *)
let start_server ?(jobs = 1) ?nofile ?(extra = []) ?(env = []) ?errfile () =
  let sock = Filename.temp_file "repro_serve_test" ".sock" in
  Sys.remove sock;
  let argv =
    [ repro_exe; "serve"; "--quick"; "--socket"; sock; "--jobs"; string_of_int jobs ]
    @ extra
  in
  let argv =
    match nofile with
    | None -> argv
    | Some n ->
        [ "/bin/sh"; "-c"; Printf.sprintf "ulimit -n %d && exec \"$0\" \"$@\"" n ] @ argv
  in
  flush stdout;
  flush stderr;
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let err_out =
    match errfile with
    | None -> null_out
    | Some path -> Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
  in
  let pid =
    Unix.create_process_env (List.hd argv) (Array.of_list argv)
      (Array.append (Array.of_list env) (Unix.environment ()))
      null_in null_out err_out
  in
  Unix.close null_in;
  Unix.close null_out;
  if Option.is_some errfile then Unix.close err_out;
  (sock, pid)

let stop_server (sock, pid) =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error (_, _, _) -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error (_, _, _) -> ());
  try Sys.remove sock with Sys_error _ -> ()

let with_server ?jobs ?extra f =
  let ((sock, _) as server) = start_server ?jobs ?extra () in
  Fun.protect
    ~finally:(fun () -> stop_server server)
    (fun () -> f (Serve.Server.Unix_socket sock))

let call_ok conn req =
  match Serve.Client.call conn req with
  | Ok resp -> resp
  | Error m -> Alcotest.fail ("call failed: " ^ m)

(* -------------------------- e2e: determinism ------------------------ *)

let script_workloads = [| "gcc"; "sjas"; "odb_c" |]

(* Health is excluded on purpose: its response reports the server's jobs
   setting, which is exactly what must differ between the two runs. *)
let client_script i =
  let w k = script_workloads.((i + k) mod Array.length script_workloads) in
  [ P.Analyze (w 0); P.Quadrant (w 1); P.Re_curve (w 2) ]

let parse_entries content =
  let rec go pos acc =
    if pos >= String.length content then List.rev acc
    else
      let nl = String.index_from content pos '\n' in
      let len = int_of_string (String.sub content pos (nl - pos)) in
      go (nl + 1 + len) (String.sub content (nl + 1) len :: acc)
  in
  go 0 []

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Fork [n] concurrent clients; each records the raw payload bytes of
   every response, length-prefixed, in its own file. *)
let run_clients address n =
  let files =
    List.init n (fun i -> Filename.temp_file "serve_client" (string_of_int i))
  in
  flush stdout;
  flush stderr;
  let pids =
    List.mapi
      (fun i file ->
        match Unix.fork () with
        | 0 ->
            let status =
              try
                let out = open_out_bin file in
                Serve.Client.with_connection ~retry_for:200 address (fun conn ->
                    List.iter
                      (fun req ->
                        match Serve.Client.call_raw conn req with
                        | Ok payload ->
                            Printf.fprintf out "%d\n%s" (String.length payload)
                              payload
                        | Error _ -> raise (Failure "call_raw failed"))
                      (client_script i));
                close_out out;
                0
              with Failure _ | Unix.Unix_error (_, _, _) | Sys_error _ -> 1
            in
            Unix._exit status
        | pid -> pid)
      files
  in
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "a concurrent client failed")
    pids;
  List.map
    (fun file ->
      let c = read_file file in
      Sys.remove file;
      c)
    files

let collect_run ?extra jobs =
  with_server ~jobs ?extra (fun address ->
      let transcripts = run_clients address 8 in
      (* Server-side sanity before shutdown: every request was served. *)
      Serve.Client.with_connection ~retry_for:200 address (fun conn ->
          (match call_ok conn P.Stats with
          | P.Stats_snapshot s ->
              Alcotest.(check bool) "requests served" true
                (s.Serve.Metrics.requests_total >= 24);
              Alcotest.(check bool) "no errors" true
                (s.Serve.Metrics.responses_error = [])
          | _ -> Alcotest.fail "stats: unexpected response");
          ignore (call_ok conn P.Shutdown));
      transcripts)

let test_jobs_byte_equality () =
  let serial = collect_run 1 in
  let parallel = collect_run 4 in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "client %d transcript identical at jobs 1 vs 4" i)
        true (String.equal a b))
    (List.combine serial parallel);
  (* And identical to the offline CLI: the Analyze payload is exactly the
     report `repro analyze` prints for the same configuration. *)
  let entries = parse_entries (List.nth serial 0) in
  match P.decode_response (List.nth entries 0) with
  | Ok (P.Report text) ->
      let offline =
        Fuzzy.Report.analyze_report (Fuzzy.Experiments.analyze_cached acfg "gcc")
      in
      Alcotest.(check string) "served analyze = offline analyze" offline text
  | Ok _ | Stdlib.Error _ -> Alcotest.fail "expected a Report response"

(* Shard fan-out must be invisible in the bytes: 4 IO shards reproduce
   the single-shard transcripts exactly, because every connection's
   ledger lives on one shard and the responses are pure functions of the
   requests. *)
let test_shards_byte_equality () =
  let baseline = collect_run 4 in
  let sharded = collect_run ~extra:[ "--io-shards"; "4" ] 4 in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "client %d identical at 1 vs 4 shards" i)
        true (String.equal a b))
    (List.combine baseline sharded)

(* ------------------- e2e: backpressure and deadlines ---------------- *)

let test_overload () =
  with_server ~extra:[ "--queue"; "0" ] (fun address ->
      Serve.Client.with_connection ~retry_for:200 address (fun conn ->
          (match call_ok conn (P.Analyze "gcc") with
          | P.Error { code = P.Overloaded; _ } -> ()
          | resp ->
              Alcotest.fail ("expected overloaded, got " ^ P.render_response resp));
          (* Inline requests keep flowing while the queue refuses work. *)
          (match call_ok conn P.Health with
          | P.Health_ok { workloads; _ } ->
              Alcotest.(check int) "health while overloaded"
                (Array.length Workload.Catalog.all)
                workloads
          | resp -> Alcotest.fail ("health: " ^ P.render_response resp));
          (match call_ok conn P.Stats with
          | P.Stats_snapshot s ->
              Alcotest.(check (list (pair string int)))
                "overload counted" [ ("overloaded", 1) ]
                s.Serve.Metrics.responses_error
          | resp -> Alcotest.fail ("stats: " ^ P.render_response resp));
          ignore (call_ok conn P.Shutdown)))

let test_timeout () =
  with_server ~extra:[ "--timeout"; "0" ] (fun address ->
      Serve.Client.with_connection ~retry_for:200 address (fun conn ->
          (match call_ok conn (P.Analyze "gcc") with
          | P.Error { code = P.Timeout; _ } -> ()
          | resp -> Alcotest.fail ("expected timeout, got " ^ P.render_response resp));
          (match call_ok conn P.Stats with
          | P.Stats_snapshot s ->
              Alcotest.(check (list (pair string int)))
                "timeout counted" [ ("timeout", 1) ]
                s.Serve.Metrics.responses_error
          | resp -> Alcotest.fail ("stats: " ^ P.render_response resp));
          ignore (call_ok conn P.Shutdown)))

(* Every shard that submits work checks the deadline first, and each
   Timeout answer reaches its subscriber through the owner shard's
   inbox.  At four shards the first four connection ids land on shards
   0-3; every connection's analyze must answer timeout, all four must be
   counted, and the drain must end. *)
let test_timeout_across_shards () =
  let ((sock, pid) as server) =
    start_server ~extra:[ "--io-shards"; "4"; "--timeout"; "0" ] ()
  in
  Fun.protect
    ~finally:(fun () -> stop_server server)
    (fun () ->
      let address = Serve.Server.Unix_socket sock in
      let conns = List.init 4 (fun _ -> Serve.Client.connect ~retry_for:200 address) in
      List.iteri
        (fun i conn ->
          match call_ok conn (P.Analyze "gcc") with
          | P.Error { code = P.Timeout; _ } -> ()
          | resp ->
              Alcotest.failf "connection %d: expected timeout, got %s" i
                (P.render_response resp))
        conns;
      (match call_ok (List.hd conns) P.Stats with
      | P.Stats_snapshot s ->
          Alcotest.(check (list (pair string int)))
            "one connection per shard"
            [ ("00", 1); ("01", 1); ("02", 1); ("03", 1) ]
            s.Serve.Metrics.accepted_by_shard;
          Alcotest.(check (list (pair string int)))
            "timeouts counted" [ ("timeout", 4) ] s.Serve.Metrics.responses_error
      | resp -> Alcotest.fail ("stats: " ^ P.render_response resp));
      ignore (call_ok (List.hd conns) P.Shutdown);
      let rec drained tries =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when tries > 0 ->
            Unix.sleepf 0.05;
            drained (tries - 1)
        | 0, _ -> false
        | _ -> true
      in
      Alcotest.(check bool) "drain ends" true (drained 200);
      List.iter Serve.Client.close conns)

let test_unknown_workload () =
  with_server (fun address ->
      Serve.Client.with_connection ~retry_for:200 address (fun conn ->
          (match call_ok conn (P.Analyze "no_such_workload") with
          | P.Error { code = P.Unknown_workload; _ } -> ()
          | resp -> Alcotest.fail ("expected unknown_workload, got " ^ P.render_response resp));
          ignore (call_ok conn P.Shutdown)))

(* -------------------------- e2e: admission -------------------------- *)

let find_error code errors =
  Option.value ~default:0 (List.assoc_opt code errors)

(* Burst of 2 with a slow refill: the third heavy request from the same
   peer is refused with the typed rate_limited error, while inline
   requests keep flowing; counters line up in the snapshot. *)
let test_rate_limit () =
  with_server
    ~extra:[ "--rate-burst"; "2"; "--rate-every"; "1000" ]
    (fun address ->
      Serve.Client.with_connection ~retry_for:200 address (fun conn ->
          (match call_ok conn (P.Analyze "gcc") with
          | P.Report _ -> ()
          | resp -> Alcotest.fail ("first analyze: " ^ P.render_response resp));
          (match call_ok conn (P.Analyze "gcc") with
          | P.Report _ -> ()
          | resp -> Alcotest.fail ("second analyze: " ^ P.render_response resp));
          (match call_ok conn (P.Analyze "gcc") with
          | P.Error { code = P.Rate_limited; _ } -> ()
          | resp ->
              Alcotest.fail ("expected rate_limited, got " ^ P.render_response resp));
          (match call_ok conn P.Health with
          | P.Health_ok _ -> ()
          | resp -> Alcotest.fail ("health while limited: " ^ P.render_response resp));
          (match call_ok conn P.Stats with
          | P.Stats_snapshot s ->
              Alcotest.(check int) "rate_limited counted" 1
                (find_error "rate_limited" s.Serve.Metrics.responses_error);
              Alcotest.(check int) "admission.admitted" 2
                s.Serve.Metrics.admission_admitted;
              Alcotest.(check int) "admission.rate_limited" 1
                s.Serve.Metrics.admission_rate_limited
          | resp -> Alcotest.fail ("stats: " ^ P.render_response resp));
          ignore (call_ok conn P.Shutdown)))

let test_too_large () =
  with_server
    ~extra:[ "--max-request"; "4" ]
    (fun address ->
      Serve.Client.with_connection ~retry_for:200 address (fun conn ->
          (match call_ok conn (P.Analyze "gcc") with
          | P.Error { code = P.Too_large; _ } -> ()
          | resp -> Alcotest.fail ("expected too_large, got " ^ P.render_response resp));
          (match call_ok conn P.Stats with
          | P.Stats_snapshot s ->
              Alcotest.(check int) "too_large counted" 1
                (find_error "too_large" s.Serve.Metrics.responses_error);
              Alcotest.(check int) "admission.too_large" 1
                s.Serve.Metrics.admission_too_large
          | resp -> Alcotest.fail ("stats: " ^ P.render_response resp));
          ignore (call_ok conn P.Shutdown)))

(* --queue 0 makes every admitted heavy request a shed outcome; with
   --breaker-trip 1 the first shed opens the peer's breaker, so the
   second request is refused by the breaker (surfaced as overloaded but
   counted apart) without ever touching the queue. *)
let test_breaker () =
  with_server
    ~extra:[ "--queue"; "0"; "--breaker-trip"; "1"; "--breaker-probe"; "1000" ]
    (fun address ->
      Serve.Client.with_connection ~retry_for:200 address (fun conn ->
          (match call_ok conn (P.Analyze "gcc") with
          | P.Error { code = P.Overloaded; _ } -> ()
          | resp -> Alcotest.fail ("expected overloaded, got " ^ P.render_response resp));
          (match call_ok conn (P.Analyze "gcc") with
          | P.Error { code = P.Overloaded; _ } -> ()
          | resp -> Alcotest.fail ("expected breaker refusal, got " ^ P.render_response resp));
          (match call_ok conn P.Stats with
          | P.Stats_snapshot s ->
              Alcotest.(check int) "both surfaced as overloaded" 2
                (find_error "overloaded" s.Serve.Metrics.responses_error);
              Alcotest.(check int) "one breaker trip" 1
                s.Serve.Metrics.admission_breaker_trips;
              Alcotest.(check int) "one breaker rejection" 1
                s.Serve.Metrics.admission_breaker_rejected
          | resp -> Alcotest.fail ("stats: " ^ P.render_response resp));
          ignore (call_ok conn P.Shutdown)))

(* ------------------------ e2e: streaming ingest --------------------- *)

let test_ingest_equivalence () =
  (* Offline reference: the same pipeline configuration the server builds
     from its --quick analysis config. *)
  let ocfg = { Online.Pipeline.default with Online.Pipeline.analysis = acfg } in
  let expected = ref [] in
  let final =
    Online.Pipeline.run
      ~on_verdict:(fun v ->
        expected := Format.asprintf "%a" Online.Classifier.pp_verdict v :: !expected)
      ocfg "gcc"
  in
  let expected_lines = List.rev !expected in
  let expected_final = Format.asprintf "%a@." Online.Pipeline.pp_final final in
  with_server (fun address ->
      Serve.Client.with_connection ~retry_for:200 address (fun conn ->
          (match call_ok conn (P.Ingest_open "gcc") with
          | P.Ingest_ack s -> Alcotest.(check string) "ack names stream" "gcc" s
          | resp -> Alcotest.fail ("open: " ^ P.render_response resp));
          (* Same sample stream the offline paths derive from (seed, name). *)
          let entry = Workload.Catalog.find "gcc" in
          let model =
            entry.Workload.Catalog.build ~seed:acfg.Fuzzy.Analysis.seed
              ~scale:acfg.Fuzzy.Analysis.scale
          in
          let cpu = March.Cpu.create acfg.Fuzzy.Analysis.machine in
          let rng = Stats.Rng.split_label acfg.Fuzzy.Analysis.seed "gcc" in
          let samples =
            acfg.Fuzzy.Analysis.intervals * acfg.Fuzzy.Analysis.samples_per_interval
          in
          let got = ref [] in
          let batch = ref [] in
          let flush_batch () =
            if !batch <> [] then begin
              let chunk = List.rev !batch in
              batch := [];
              match call_ok conn (P.Ingest_feed chunk) with
              | P.Verdicts vs -> List.iter (fun v -> got := v :: !got) vs
              | resp -> Alcotest.fail ("feed: " ^ P.render_response resp)
            end
          in
          let _meta =
            Sampling.Driver.stream ~period:acfg.Fuzzy.Analysis.period model ~cpu ~rng
              ~samples ~f:(fun _ s ->
                batch := s :: !batch;
                if List.length !batch >= 75 then flush_batch ())
          in
          flush_batch ();
          let got_final =
            match call_ok conn P.Ingest_finalize with
            | P.Ingest_final text -> text
            | resp -> Alcotest.fail ("finalize: " ^ P.render_response resp)
          in
          Alcotest.(check (list string)) "verdict trace identical over RPC"
            expected_lines (List.rev !got);
          Alcotest.(check string) "final verdict identical over RPC" expected_final
            got_final;
          (* The stream is closed: feeding again is a typed error. *)
          (match call_ok conn P.Ingest_finalize with
          | P.Error { code = P.Failed; _ } -> ()
          | resp -> Alcotest.fail ("double finalize: " ^ P.render_response resp));
          ignore (call_ok conn P.Shutdown)))

(* ----------------------------- e2e: tcp ----------------------------- *)

let test_tcp_health () =
  (* Derive the port from the pid so concurrent checkouts don't collide. *)
  let port = 20_000 + (Unix.getpid () mod 20_000) in
  let server = start_server ~extra:[ "--port"; string_of_int port ] () in
  Fun.protect
    ~finally:(fun () -> stop_server server)
    (fun () ->
      Serve.Client.with_connection ~retry_for:200 (Serve.Server.Tcp port)
        (fun conn ->
          (match call_ok conn P.Health with
          | P.Health_ok { version; jobs; workloads } ->
              Alcotest.(check int) "protocol version" W.version version;
              Alcotest.(check int) "jobs" 1 jobs;
              Alcotest.(check int) "catalog size"
                (Array.length Workload.Catalog.all)
                workloads
          | resp -> Alcotest.fail ("health: " ^ P.render_response resp));
          ignore (call_ok conn P.Shutdown)))

(* ------------------------ e2e: read buffer -------------------------- *)

(* A shard reads into one buffer for its whole life.  A fresh 64 KiB
   buffer per read went straight to the major heap: 200 one-shot health
   connections (a request read and an EOF read each) then allocated
   about 3.4M major words.  OCAMLRUNPARAM=v=0x400 makes the server print
   its GC totals on stderr at exit. *)
let test_read_buffer_reused () =
  let errfile = Filename.temp_file "repro_serve_test" ".err" in
  let ((sock, pid) as server) =
    start_server ~env:[ "OCAMLRUNPARAM=v=0x400" ] ~errfile ()
  in
  Fun.protect
    ~finally:(fun () ->
      stop_server server;
      Sys.remove errfile)
    (fun () ->
      let address = Serve.Server.Unix_socket sock in
      for _ = 1 to 200 do
        Serve.Client.with_connection ~retry_for:200 address (fun conn ->
            match call_ok conn P.Health with
            | P.Health_ok _ -> ()
            | resp -> Alcotest.fail ("health: " ^ P.render_response resp))
      done;
      Serve.Client.with_connection address (fun conn -> ignore (call_ok conn P.Shutdown));
      ignore (Unix.waitpid [] pid);
      let major_words =
        List.find_map
          (fun line ->
            match String.split_on_char ':' line with
            | [ "major_words"; n ] -> int_of_string_opt (String.trim n)
            | _ -> None)
          (String.split_on_char '\n' (read_file errfile))
      in
      match major_words with
      | None -> Alcotest.fail "no major_words line on the server's stderr"
      | Some words ->
          Alcotest.(check bool)
            (Printf.sprintf "%d major words < 1,000,000" words)
            true (words < 1_000_000))

(* ------------------------- e2e: half-close -------------------------- *)

(* User plus system CPU seconds of process [pid], from /proc/<pid>/stat
   (fields 14 and 15, in the kernel's 100 Hz USER_HZ ticks). *)
let cpu_seconds pid =
  let stat = In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all in
  let close = String.rindex stat ')' in
  let rest = String.sub stat (close + 2) (String.length stat - close - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  float_of_int (int_of_string fields.(11) + int_of_string fields.(12)) /. 100.0

(* A raw client socket, connected once the server listens. *)
let connect_raw sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go tries =
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
        Unix.sleepf 0.05;
        go (tries - 1)
    | exception e ->
        Unix.close fd;
        raise e
  in
  go 200

(* A client that sends one cold analyze and half-closes its socket must
   get the offline report, and the server must not spin re-reading EOF
   while the answer computes: on a host with a core per job, its CPU
   time over the wait stays well under the 2x that a spinning shard plus
   a busy worker would burn. *)
let test_half_close () =
  let ((sock, pid) as server) = start_server ~jobs:2 () in
  Fun.protect
    ~finally:(fun () -> stop_server server)
    (fun () ->
      let fd = connect_raw sock in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let cpu0 = cpu_seconds pid and t0 = Serve.Clock.now () in
          W.write_frame fd (P.encode_request (P.Analyze "gcc"));
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          let reply = W.read_frame fd in
          let wall = Serve.Clock.now () -. t0 and cpu = cpu_seconds pid -. cpu0 in
          (match Result.map P.decode_response reply with
          | Ok (Ok (P.Report text)) ->
              Alcotest.(check string) "half-closed analyze = offline analyze"
                (Fuzzy.Report.analyze_report (Fuzzy.Experiments.analyze_cached acfg "gcc"))
                text
          | _ -> Alcotest.fail "half-closed analyze: no report");
          if Domain.recommended_domain_count () >= 2 then
            Alcotest.(check bool)
              (Printf.sprintf "server cpu %.2fs < 1.4 x wall %.2fs" cpu wall)
              true (cpu < 1.4 *. wall)))

(* ----------------------- e2e: descriptor limits --------------------- *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with 0, _ -> true | _ -> false

let is_busy = function P.Error { code = P.Busy; _ } -> true | _ -> false

(* Out of descriptors, accept fails with EMFILE and the listener stays
   readable: the server must neither die nor spin.  Under `ulimit -n 16`
   twenty idle connections exhaust its table; those it cannot accept wait
   in the kernel backlog, and once the clients hang up a fresh one is
   answered. *)
let test_accept_out_of_descriptors () =
  let ((sock, pid) as server) = start_server ~nofile:16 () in
  let conns = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter close_quietly !conns;
      stop_server server)
    (fun () ->
      for _ = 1 to 20 do
        conns := connect_raw sock :: !conns
      done;
      Unix.sleepf 0.2;
      Alcotest.(check bool) "server alive past its descriptor limit" true (alive pid);
      let cpu0 = cpu_seconds pid in
      Unix.sleepf 1.0;
      let cpu = cpu_seconds pid -. cpu0 in
      Alcotest.(check bool)
        (Printf.sprintf "server cpu %.2fs over 1s saturated < 0.5s" cpu)
        true (cpu < 0.5);
      Alcotest.(check bool) "server still alive" true (alive pid);
      List.iter close_quietly !conns;
      conns := [];
      Serve.Client.with_connection ~retry_for:200 (Serve.Server.Unix_socket sock)
        (fun conn ->
          match call_ok conn P.Health with
          | P.Health_ok _ -> ()
          | resp -> Alcotest.fail ("health after close: " ^ P.render_response resp)))

(* This process's soft RLIMIT_NOFILE, which the servers it starts inherit. *)
let nofile_limit () =
  let ic = Unix.open_process_in "ulimit -n" in
  let limit = String.trim (In_channel.input_all ic) in
  ignore (Unix.close_process_in ic);
  Option.value ~default:max_int (int_of_string_opt limit)

(* 1,040 idle connections under --max-conns 1200 push the server's
   descriptors past select's FD_SETSIZE (1024).  Each connection that
   lands on such a descriptor is refused with busy, before any
   accounting; the server stays up, and once some connections close a
   fresh client is answered. *)
let test_descriptors_past_fd_setsize () =
  if nofile_limit () < 1100 then begin
    print_endline "skipped: RLIMIT_NOFILE is below the 1,100 descriptors this case needs";
    Alcotest.skip ()
  end;
  let ((sock, pid) as server) = start_server ~extra:[ "--max-conns"; "1200" ] () in
  let conns = ref [] in
  (* A refused connection is closed by the server, so a request written
     to it may meet EPIPE instead of the busy frame. *)
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      List.iter close_quietly !conns;
      stop_server server;
      Sys.set_signal Sys.sigpipe old_pipe)
    (fun () ->
      for _ = 1 to 1040 do
        conns := connect_raw sock :: !conns
      done;
      let opened = List.rev !conns in
      (* The server accepts in arrival order and answers a refusal
         unprompted: once this later connection reads its busy frame,
         every earlier one has been accepted or refused. *)
      let late = connect_raw sock in
      conns := late :: !conns;
      Unix.setsockopt_float late Unix.SO_RCVTIMEO 10.0;
      let busy_frame fd =
        match Result.map P.decode_response (W.read_frame fd) with
        | Ok (Ok resp) -> is_busy resp
        | Ok (Stdlib.Error _) | Stdlib.Error _ -> false
      in
      Alcotest.(check bool) "connection past FD_SETSIZE answers busy" true (busy_frame late);
      Alcotest.(check bool) "server alive" true (alive pid);
      let refused, idle =
        List.partition
          (fun fd ->
            Unix.set_nonblock fd;
            match Unix.recv fd (Bytes.create 1) 0 1 [ Unix.MSG_PEEK ] with
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> false
            | _ ->
                Unix.clear_nonblock fd;
                if not (busy_frame fd) then
                  Alcotest.fail "an idle connection got something other than busy";
                true)
          opened
      in
      Alcotest.(check bool) "some idle connections refused busy" true (refused <> []);
      List.iteri (fun i fd -> if i < 40 then close_quietly fd) idle;
      let address = Serve.Server.Unix_socket sock in
      let rec answered retries =
        if retries > 200 then Alcotest.fail "no health answer after connections closed";
        match
          Serve.Client.with_connection address (fun c ->
              match Serve.Client.call c P.Health with
              | Ok (P.Health_ok _) -> Some (call_ok c P.Stats)
              | Ok resp when is_busy resp -> None
              | Ok resp -> Alcotest.fail ("health: " ^ P.render_response resp)
              | Stdlib.Error _ -> None)
        with
        | None ->
            Unix.sleepf 0.05;
            answered (retries + 1)
        | Some (P.Stats_snapshot s) -> (retries, s)
        | Some resp -> Alcotest.fail ("stats: " ^ P.render_response resp)
      in
      let retries, s = answered 0 in
      Alcotest.(check int) "refusals counted"
        (List.length refused + 1 + retries)
        s.Serve.Metrics.connections_refused;
      Alcotest.(check int) "accepted counted"
        (List.length idle + 1)
        s.Serve.Metrics.connections_accepted)

(* --------------------------- e2e: http ------------------------------ *)

(* With --metrics-port 0 the OS assigns the HTTP port and the server
   reports it in a "metrics listening" stderr line. *)
let metrics_port_of errfile =
  let tag = "metrics listening on http://127.0.0.1:" in
  let parse () =
    let content = try read_file errfile with Sys_error _ -> "" in
    let tlen = String.length tag in
    let rec find i =
      if i + tlen > String.length content then None
      else if String.sub content i tlen = tag then begin
        let stop = ref (i + tlen) in
        while
          !stop < String.length content
          && (match content.[!stop] with '0' .. '9' -> true | _ -> false)
        do
          incr stop
        done;
        int_of_string_opt (String.sub content (i + tlen) (!stop - i - tlen))
      end
      else find (i + 1)
    in
    find 0
  in
  let rec poll tries =
    match parse () with
    | Some port -> port
    | None ->
        if tries = 0 then Alcotest.fail "no 'metrics listening' line on stderr"
        else begin
          Unix.sleepf 0.05;
          poll (tries - 1)
        end
  in
  poll 200

(* Start a --metrics-port 0 server, wait for its port, run [f], stop. *)
let with_http_server ?(extra = []) f =
  let errfile = Filename.temp_file "repro_serve_test" ".err" in
  let sock, pid = start_server ~extra:([ "--metrics-port"; "0" ] @ extra) ~errfile () in
  Fun.protect
    ~finally:(fun () ->
      stop_server (sock, pid);
      try Sys.remove errfile with Sys_error _ -> ())
    (fun () -> f ~port:(metrics_port_of errfile) (Serve.Server.Unix_socket sock))

(* One HTTP/1.0 exchange: connect, send [chunks] ([pause] seconds after
   each, so each chunk reaches the server as a read of its own), read to
   EOF (the server always closes), split status code from body.  The
   receive timeout turns a connection the server never closes into a
   failure instead of a hang. *)
let http_exchange ?(pause = 0.0) port chunks =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
      List.iter
        (fun chunk ->
          ignore (Unix.write_substring fd chunk 0 (String.length chunk));
          if pause > 0.0 then Unix.sleepf pause)
        chunks;
      let b = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes b chunk 0 n;
            drain ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            Alcotest.fail "server did not close the HTTP connection"
      in
      drain ();
      let all = Buffer.contents b in
      let code =
        if String.length all >= 12 then
          int_of_string_opt (String.sub all 9 3)
        else None
      in
      let code =
        match code with
        | Some c -> c
        | None -> Alcotest.fail ("unparseable HTTP response: " ^ all)
      in
      let sep = "\r\n\r\n" in
      let rec body_at i =
        if i + String.length sep > String.length all then
          Alcotest.fail "HTTP response without header/body separator"
        else if String.sub all i (String.length sep) = sep then
          String.sub all
            (i + String.length sep)
            (String.length all - i - String.length sep)
        else body_at (i + 1)
      in
      (code, body_at 0))

let http_get port path =
  http_exchange port [ Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path ]

(* The exposition is deterministic for a scripted session except where
   it is deliberately clock-fed (histogram buckets and sums) or
   placement-dependent (which shard accepted the one connection): those
   lines are masked, everything else must match the committed golden
   byte-for-byte at 1 and 4 IO shards. *)
let normalize_exposition text =
  let mask_value line =
    match String.rindex_opt line ' ' with
    | Some i -> String.sub line 0 (i + 1) ^ "X"
    | None -> line
  in
  String.split_on_char '\n' text
  |> List.map (fun line ->
         let starts prefix =
           String.length line >= String.length prefix
           && String.sub line 0 (String.length prefix) = prefix
         in
         if
           starts "repro_request_duration_seconds_bucket"
           || starts "repro_request_duration_seconds_sum"
         then mask_value line
         else if starts "repro_shard_accepted_total{" then
           "repro_shard_accepted_total{shard=\"XX\"} X"
         else if starts "repro_io_shards " then "repro_io_shards X"
         else line)
  |> String.concat "\n"

(* Like [repro_exe]: cwd is _build/default/test under `dune runtest`,
   the project root under `dune exec test/test_serve.exe`. *)
let exposition_golden () =
  List.find Sys.file_exists
    [ "golden/metrics-exposition.out"; "test/golden/metrics-exposition.out" ]

(* Run the fixed client script against a server, scrape /metrics while
   the connection is still open (so the active-connections gauge is
   deterministic), and return the scrape plus the stats snapshot. *)
let scripted_scrape ~shards =
  let extra =
    if shards = 1 then [] else [ "--io-shards"; string_of_int shards ]
  in
  with_http_server ~extra (fun ~port address ->
      Serve.Client.with_connection ~retry_for:200 address
        (fun conn ->
          (match call_ok conn (P.Analyze "gcc") with
          | P.Report _ -> ()
          | resp -> Alcotest.fail ("analyze: " ^ P.render_response resp));
          (match call_ok conn (P.Quadrant "gcc") with
          | P.Quadrant_verdict _ -> ()
          | resp -> Alcotest.fail ("quadrant: " ^ P.render_response resp));
          (match call_ok conn P.Health with
          | P.Health_ok _ -> ()
          | resp -> Alcotest.fail ("health: " ^ P.render_response resp));
          let code, scrape = http_get port "/metrics" in
          Alcotest.(check int) "/metrics status" 200 code;
          let code, _ = http_get port "/nope" in
          Alcotest.(check int) "unknown path status" 404 code;
          let code, _ = http_get port "/health" in
          Alcotest.(check int) "/health while serving" 200 code;
          let stats =
            match call_ok conn P.Stats with
            | P.Stats_snapshot s -> s
            | resp -> Alcotest.fail ("stats: " ^ P.render_response resp)
          in
          ignore (call_ok conn P.Shutdown);
          (scrape, stats)))

(* Pull "name{kind=\"K\"} V" integers for one family out of a scrape. *)
let scraped_by_kind name scrape =
  List.filter_map
    (fun line ->
      let prefix = name ^ "{kind=\"" in
      if
        String.length line > String.length prefix
        && String.sub line 0 (String.length prefix) = prefix
      then
        let rest =
          String.sub line (String.length prefix)
            (String.length line - String.length prefix)
        in
        match (String.index_opt rest '"', String.rindex_opt rest ' ') with
        | Some q, Some sp ->
            Option.map
              (fun v -> (String.sub rest 0 q, v))
              (int_of_string_opt
                 (String.sub rest (sp + 1) (String.length rest - sp - 1)))
        | _ -> None
      else None)
    (String.split_on_char '\n' scrape)

let test_metrics_exposition_golden () =
  let scrape1, stats1 = scripted_scrape ~shards:1 in
  let scrape4, _ = scripted_scrape ~shards:4 in
  let n1 = normalize_exposition scrape1 in
  let n4 = normalize_exposition scrape4 in
  Alcotest.(check string) "exposition identical at 1 vs 4 IO shards" n1 n4;
  (* At quiescence each verb's histogram count equals the stats RPC's
     requests_by_kind counter (the scrape predates the Stats request
     itself, so "stats" appears in the RPC counters only). *)
  let counts = scraped_by_kind "repro_request_duration_seconds_count" scrape1 in
  Alcotest.(check bool) "histogram kinds observed" true (counts <> []);
  List.iter
    (fun (kind, hist_count) ->
      match List.assoc_opt kind stats1.Serve.Metrics.requests_by_kind with
      | Some n ->
          Alcotest.(check int)
            ("histogram count = requests_by_kind for " ^ kind)
            n hist_count
      | None -> Alcotest.fail ("histogram for unknown verb " ^ kind))
    counts;
  (* And the per-verb request counters in the scrape agree with them. *)
  Alcotest.(check (list (pair string int)))
    "scrape requests_kind_total = histogram counts"
    (scraped_by_kind "repro_requests_kind_total" scrape1)
    counts;
  match Sys.getenv_opt "REPRO_METRICS_GOLDEN_WRITE" with
  | Some path ->
      let oc = open_out_bin path in
      output_string oc n1;
      close_out oc
  | None ->
      let golden = read_file (exposition_golden ()) in
      Alcotest.(check string) "normalized exposition matches golden" golden n1

(* The three surfaces that print metrics, pinned byte for byte: the
   framed stats response and the [client stats] text of one snapshot
   whose 23 fields all differ and whose three lists hold two entries
   each, and the un-normalised exposition of a fixed [Metrics.t] with
   every counter non-zero.  The store and admission counters, which the
   server's stores own, go in through the snapshot record. *)
let pinned_snapshot =
  {
    Serve.Metrics.connections_accepted = 101;
    connections_active = 7;
    connections_refused = 3;
    requests_total = 2041;
    requests_by_kind = [ ("analyze", 1500); ("health", 541) ];
    responses_ok = 1990;
    responses_error = [ ("overloaded", 29); ("timeout", 22) ];
    batch_joined = 40;
    cache_hits = 1230;
    cache_misses = 270;
    store_hits = 212;
    store_misses = 58;
    store_writes = 57;
    store_corrupt = 1;
    queue_high_water = 64;
    inflight_high_water = 4;
    io_shards = 2;
    accepted_by_shard = [ ("00", 49); ("01", 52) ];
    admission_admitted = 1471;
    admission_rate_limited = 18;
    admission_too_large = 5;
    admission_breaker_rejected = 6;
    admission_breaker_trips = 2;
  }

let pinned_golden () =
  List.find Sys.file_exists
    [ "golden/metrics-pinned.out"; "test/golden/metrics-pinned.out" ]

let test_stats_bytes_pinned () =
  let framed = W.encode (P.encode_response (P.Stats_snapshot pinned_snapshot)) in
  Alcotest.(check string)
    "framed stats response md5" "e49006c436900d7a5b52cbd1f6e264b6"
    (Digest.to_hex (Digest.string framed));
  Alcotest.(check string) "client stats text" {|serve metrics
  connections.accepted         101
  connections.active           7
  connections.refused          3
  requests.total               2041
  requests.analyze             1500
  requests.health              541
  responses.ok                 1990
  responses.error.overloaded   29
  responses.error.timeout      22
  batch.joined                 40
  cache.hits                   1230
  cache.misses                 270
  store.hits                   212
  store.misses                 58
  store.writes                 57
  store.corrupt                1
  queue.high_water             64
  inflight.high_water          4
  io.shards                    2
  connections.shard.00         49
  connections.shard.01         52
  admission.admitted           1471
  admission.rate_limited       18
  admission.too_large          5
  admission.breaker_rejected   6
  admission.breaker_trips      2
|}
    (Serve.Metrics.render pinned_snapshot);
  let module M = Serve.Metrics in
  let t = M.create () in
  M.incr_accepted t;
  M.incr_accepted t;
  M.incr_refused t;
  M.set_active t 1;
  M.incr_request t ~kind:"analyze";
  M.incr_request t ~kind:"analyze";
  M.incr_request t ~kind:"health";
  M.incr_ok t;
  M.incr_ok t;
  M.incr_error t ~code:"timeout";
  M.incr_error t ~code:"rate_limited";
  M.incr_batch_joined t;
  M.incr_cache_hit t;
  M.incr_cache_miss t;
  M.set_io_shards t 2;
  M.incr_shard_accept t ~shard:0;
  M.incr_shard_accept t ~shard:1;
  M.observe_queue_depth t 5;
  M.observe_inflight t 2;
  M.observe_latency t ~kind:"analyze" ~seconds:0.25;
  M.observe_latency t ~kind:"health" ~seconds:3e-6;
  let snapshot =
    {
      (M.snapshot t) with
      store_hits = 9;
      store_misses = 8;
      store_writes = 7;
      store_corrupt = 6;
      admission_admitted = 5;
      admission_rate_limited = 4;
      admission_too_large = 3;
      admission_breaker_rejected = 2;
      admission_breaker_trips = 1;
    }
  in
  let text =
    Serve.Exposition.render ~snapshot ~latency:(M.latency t) ~queue_depth:3
      ~inflight:1 ~draining:true
  in
  Alcotest.(check string) "exposition" (read_file (pinned_golden ())) text

(* The codec and [gen_snapshot] both go through the table's setters, so
   the round-trip property cannot see a setter that writes the wrong
   field or none; [pinned_snapshot] spells every field itself. *)
let test_stats_decode_pinned () =
  let payload = P.encode_response (P.Stats_snapshot pinned_snapshot) in
  Alcotest.(check bool)
    "stats frame decodes to the literal snapshot" true
    (P.decode_response payload = Ok (P.Stats_snapshot pinned_snapshot))

(* /health readiness flips to 503 between the shutdown request and the
   end of the drain: a forked client holds a cold analysis in flight so
   the drain window is wide enough to probe. *)
let test_health_drain () =
  with_http_server (fun ~port address ->
      let code, _ = http_get port "/health" in
      Alcotest.(check int) "/health before shutdown" 200 code;
      flush stdout;
      flush stderr;
      (* Several cold analyses queued on separate connections keep the
         drain busy for north of a second — wide enough to probe. *)
      let children =
        List.map
          (fun workload ->
            match Unix.fork () with
            | 0 ->
                let status =
                  try
                    Serve.Client.with_connection ~retry_for:200 address
                      (fun conn ->
                        match Serve.Client.call conn (P.Analyze workload) with
                        | Ok _ -> 0
                        | Error _ -> 1)
                  with Failure _ | Unix.Unix_error (_, _, _) | Sys_error _ -> 1
                in
                Unix._exit status
            | pid -> pid)
          [ "mcf"; "art"; "applu"; "ammp"; "apsi" ]
      in
      (* Let the analyses reach the queue before shutting down. *)
      Unix.sleepf 0.1;
      Serve.Client.with_connection ~retry_for:200 address (fun conn ->
          ignore (call_ok conn P.Shutdown));
      (* The draining flag is set before the shutdown ack goes out, so
         the very first probe must see 503. *)
      let code, _ = http_get port "/health" in
      Alcotest.(check int) "/health during drain" 503 code;
      List.iter
        (fun child ->
          match Unix.waitpid [] child with
          | _, Unix.WEXITED 0 -> ()
          | _ -> Alcotest.fail "a draining client's analyze failed")
        children)

(* A scrape whose head arrives one byte per read is answered once the
   blank line is in. *)
let test_http_bytewise_head () =
  with_http_server (fun ~port _ ->
      let head = "GET /health HTTP/1.0\r\n\r\n" in
      let code, body =
        http_exchange ~pause:0.005 port
          (List.init (String.length head) (fun i -> String.make 1 head.[i]))
      in
      Alcotest.(check (pair int string)) "bytewise /health" (200, "ok\n") (code, body))

(* [http_exchange] reads to EOF, so the 400 also shows the server closed
   the connection. *)
let test_http_malformed_head () =
  with_http_server (fun ~port _ ->
      let code, _ = http_exchange port [ "garbage\r\n\r\n" ] in
      Alcotest.(check int) "malformed head" 400 code)

let test_http_post () =
  with_http_server (fun ~port _ ->
      let code, _ = http_exchange port [ "POST /metrics HTTP/1.0\r\n\r\n" ] in
      Alcotest.(check int) "POST /metrics" 405 code)

(* Scrapes take no RPC connection ids: at four shards, scrapes interleaved
   with RPC connects leave shard placement and the connection counters
   exactly as a run without scrapes. *)
let test_scrapes_leave_rpc_counters () =
  let counters ~scrape =
    with_http_server ~extra:[ "--io-shards"; "4" ] (fun ~port address ->
        let conns =
          List.init 6 (fun _ ->
              if scrape then begin
                Alcotest.(check int) "/health" 200 (fst (http_get port "/health"));
                Alcotest.(check int) "/metrics" 200 (fst (http_get port "/metrics"))
              end;
              let conn = Serve.Client.connect ~retry_for:200 address in
              (* The round trip pins accept order to connect order. *)
              (match call_ok conn P.Health with
              | P.Health_ok _ -> ()
              | resp -> Alcotest.fail ("health: " ^ P.render_response resp));
              conn)
        in
        let s =
          match call_ok (List.hd conns) P.Stats with
          | P.Stats_snapshot s -> s
          | resp -> Alcotest.fail ("stats: " ^ P.render_response resp)
        in
        List.iter Serve.Client.close conns;
        Serve.Metrics.
          (s.connections_accepted, s.connections_active, s.accepted_by_shard))
  in
  let without = counters ~scrape:false in
  Alcotest.(check (triple int int (list (pair string int))))
    "accepted, active and per-shard accepts" without (counters ~scrape:true)

(* ------------------------------ evloop ------------------------------ *)

(* One readiness round-trip over the stateless wait: a wait reports only
   descriptors it was passed, readability is level-triggered, write
   interest and [wake] each end a long wait early, and the wakeup pipe is
   never reported readable.  pipe(2) takes the two lowest free
   descriptors, so the loop's wakeup pipe reuses the numbers of the probe
   pipe closed just before [Evloop.create]. *)
let test_evloop_readiness () =
  let wake_r, wake_w = Unix.pipe () in
  Unix.close wake_r;
  Unix.close wake_w;
  let ev = Evloop.create () in
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      Evloop.close ev;
      Unix.close r;
      Unix.close w)
    (fun () ->
      let timed_wait ~read ~write =
        let t0 = Serve.Clock.now () in
        Evloop.wait ev ~read ~write ~timeout_ms:5000;
        Serve.Clock.now () -. t0
      in
      Evloop.wait ev ~read:[ r ] ~write:[] ~timeout_ms:0;
      Alcotest.(check bool) "idle pipe not readable" false (Evloop.readable ev r);
      ignore (Unix.write_substring w "x" 0 1);
      Evloop.wait ev ~read:[] ~write:[] ~timeout_ms:0;
      Alcotest.(check bool)
        "descriptor not passed, not reported" false (Evloop.readable ev r);
      Evloop.wait ev ~read:[ r ] ~write:[] ~timeout_ms:1000;
      Alcotest.(check bool) "pending byte readable" true (Evloop.readable ev r);
      (* Level-triggered: the byte is still there on the next wait. *)
      Evloop.wait ev ~read:[ r ] ~write:[] ~timeout_ms:0;
      Alcotest.(check bool)
        "still readable (level-triggered)" true (Evloop.readable ev r);
      let waited = timed_wait ~read:[] ~write:[ w ] in
      Alcotest.(check bool)
        (Printf.sprintf "write interest ends the wait (%.3fs)" waited)
        true (waited < 2.5);
      Alcotest.(check bool) "writable end not readable" false (Evloop.readable ev w);
      Evloop.wake ev;
      let waited = timed_wait ~read:[] ~write:[] in
      Alcotest.(check bool)
        (Printf.sprintf "wake ends the wait (%.3fs)" waited)
        true (waited < 2.5);
      Alcotest.(check bool) "wakeup pipe not reported" false (Evloop.readable ev wake_r);
      Evloop.wake ev;
      Evloop.wait ev ~read:[ r ] ~write:[] ~timeout_ms:1000;
      Alcotest.(check bool) "readable beside a wake" true (Evloop.readable ev r);
      Alcotest.(check bool)
        "wakeup pipe not reported beside a readable descriptor" false
        (Evloop.readable ev wake_r);
      Evloop.wait ev ~read:[] ~write:[] ~timeout_ms:0;
      Alcotest.(check bool)
        "nothing passed, nothing reported" false (Evloop.readable ev r))

(* select cannot watch a descriptor numbered at or past FD_SETSIZE
   (1024): [watchable] says so, which is how the server refuses one, and
   a wait over the low descriptors keeps working.  dup returns the lowest
   free number, so the last of 1025 dups held open has at least 1024
   descriptors below it. *)
let test_evloop_refuses_high_fd () =
  let ev = Evloop.create () in
  let r, w = Unix.pipe () in
  let dups = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter Unix.close !dups;
      Evloop.close ev;
      Unix.close r;
      Unix.close w)
    (fun () ->
      (match
         for _ = 1 to 1025 do
           dups := Unix.dup r :: !dups
         done
       with
      | () -> ()
      | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
          print_endline "skipped: RLIMIT_NOFILE stops the dups before descriptor 1024";
          Alcotest.skip ());
      let high = List.hd !dups in
      Alcotest.(check bool) "low pipe end watchable" true (Evloop.watchable r);
      Alcotest.(check bool) "descriptor >= 1024 not watchable" false (Evloop.watchable high);
      ignore (Unix.write_substring w "x" 0 1);
      Evloop.wait ev ~read:[ r ] ~write:[] ~timeout_ms:1000;
      Alcotest.(check bool) "low pipe end readable" true (Evloop.readable ev r))

(* ----------------------------- alcotest ----------------------------- *)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "serve"
    [
      ( "wire",
        [
          Alcotest.test_case "frame rejections" `Quick test_frame_rejections;
          Alcotest.test_case "primitive extremes" `Quick test_primitive_extremes;
        ]
        @ qcheck [ qcheck_frame_roundtrip ] );
      ( "protocol",
        [
          Alcotest.test_case "malformed payloads" `Quick test_protocol_malformed;
          Alcotest.test_case "hostile lengths" `Quick test_hostile_lengths;
          Alcotest.test_case "stats bytes pinned" `Quick test_stats_bytes_pinned;
          Alcotest.test_case "pinned stats frame decodes" `Quick
            test_stats_decode_pinned;
        ]
        @ qcheck
            [
              qcheck_request_roundtrip;
              qcheck_response_roundtrip;
              qcheck_request_truncation;
            ] );
      ( "session",
        [
          Alcotest.test_case "incremental framing" `Quick test_session_incremental;
          Alcotest.test_case "oversized frame" `Quick test_session_oversized;
          Alcotest.test_case "closing session drops input" `Quick
            test_session_closing_drops_input;
        ] );
      ( "evloop",
        [
          Alcotest.test_case "readiness round-trip" `Quick test_evloop_readiness;
          Alcotest.test_case "refuses descriptors past FD_SETSIZE" `Quick
            test_evloop_refuses_high_fd;
        ] );
      ( "server",
        [
          Alcotest.test_case "8 clients byte-identical across jobs" `Slow
            test_jobs_byte_equality;
          Alcotest.test_case "byte-identical across shards" `Slow
            test_shards_byte_equality;
          Alcotest.test_case "queue overflow -> overloaded" `Quick test_overload;
          Alcotest.test_case "deadline -> timeout" `Quick test_timeout;
          Alcotest.test_case "timeouts reach every shard" `Quick
            test_timeout_across_shards;
          Alcotest.test_case "unknown workload" `Quick test_unknown_workload;
          Alcotest.test_case "rate limit -> typed refusal" `Quick test_rate_limit;
          Alcotest.test_case "size budget -> too_large" `Quick test_too_large;
          Alcotest.test_case "breaker trips after shed" `Quick test_breaker;
          Alcotest.test_case "ingest stream = repro stream" `Slow
            test_ingest_equivalence;
          Alcotest.test_case "health over tcp" `Quick test_tcp_health;
          Alcotest.test_case "one read buffer per shard" `Quick test_read_buffer_reused;
          Alcotest.test_case "half-closed peer: offline bytes, no spin" `Quick test_half_close;
          Alcotest.test_case "out of descriptors: no crash, no spin" `Quick
            test_accept_out_of_descriptors;
          Alcotest.test_case "descriptors past FD_SETSIZE -> busy" `Quick
            test_descriptors_past_fd_setsize;
        ] );
      ( "http",
        [
          Alcotest.test_case "metrics exposition golden across shards" `Slow
            test_metrics_exposition_golden;
          Alcotest.test_case "health 503 during drain" `Quick test_health_drain;
          Alcotest.test_case "head one byte per read" `Quick test_http_bytewise_head;
          Alcotest.test_case "malformed head -> 400, closed" `Quick
            test_http_malformed_head;
          Alcotest.test_case "POST /metrics -> 405" `Quick test_http_post;
          Alcotest.test_case "scrapes leave RPC connection counters" `Quick
            test_scrapes_leave_rpc_counters;
        ] );
    ]
