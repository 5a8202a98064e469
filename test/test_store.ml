(* The persistent result store (lib/store): canonical keys, the
   content-addressed entry files, corruption handling, warm restart and
   the tiered wiring into Experiments.analyze_cached. *)

module Analysis = Fuzzy.Analysis
module Experiments = Fuzzy.Experiments

(* Tiny but real analysis config: every test below actually runs the
   pipeline, so keep it small. *)
let config =
  {
    Analysis.quick with
    Analysis.intervals = 8;
    samples_per_interval = 10;
    scale = 0.02;
    kmax = 5;
    jobs = 1;
  }

(* Every store a test opens lives under one per-process root, removed at
   exit. *)
let store_root =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "fuzzy-store-test-%d" (Unix.getpid ()))

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let () = at_exit (fun () -> if Sys.file_exists store_root then remove_tree store_root)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat store_root (string_of_int !n)

(* Every test must leave the global Experiments state as it found it:
   no disk tier, empty memory cache. *)
let isolated f =
  Fun.protect
    ~finally:(fun () ->
      Store.Result_cache.detach ();
      Experiments.clear_cache ())
    (fun () ->
      Store.Result_cache.detach ();
      Experiments.clear_cache ();
      f ())

(* ------------------------------- keys ------------------------------- *)

let test_key_roundtrip () =
  List.iter
    (fun (cfg : Analysis.config) ->
      List.iter
        (fun name ->
          let key = Store.Codec.canonical_key cfg name in
          match Store.Codec.parse_key ~jobs:cfg.Analysis.jobs key with
          | None -> Alcotest.failf "key for %s did not parse back" name
          | Some (cfg', name') ->
              Alcotest.(check string) "name" name name';
              Alcotest.(check bool) "config roundtrips exactly" true (cfg' = cfg);
              Alcotest.(check string) "reserialization is byte-identical" key
                (Store.Codec.canonical_key cfg' name'))
        [ "gcc"; "odb_c"; "odb_h_q13" ])
    [
      config;
      Analysis.default;
      Analysis.quick;
      { config with Analysis.scale = 0.1 +. 0.2; kopt_tol = 1e-17 };
      { config with Analysis.machine = March.Config.pentium4 };
    ]

let test_key_ignores_jobs () =
  let k1 = Store.Codec.canonical_key { config with Analysis.jobs = 1 } "gcc" in
  let k4 = Store.Codec.canonical_key { config with Analysis.jobs = 4 } "gcc" in
  Alcotest.(check string) "jobs not in key" k1 k4

(* [key] as another build of the analysis code would have written it. *)
let with_foreign_stamp key =
  String.split_on_char '\n' key
  |> List.map (fun line ->
         if line = "stamp " ^ Store.Version.code_stamp then "stamp other-code-v9" else line)
  |> String.concat "\n"

let test_key_rejects_foreign () =
  let key = Store.Codec.canonical_key config "gcc" in
  let stamped other = Option.is_some (Store.Codec.parse_key ~jobs:1 other) in
  Alcotest.(check bool) "own stamp parses" true (stamped key);
  Alcotest.(check bool) "foreign stamp rejected" false (stamped (with_foreign_stamp key));
  Alcotest.(check bool) "garbage rejected" false (stamped "not a key\n")

let test_digest_shape () =
  let d = Store.Cas.digest_of_key "some key" in
  Alcotest.(check bool) "digest is shard-prefixed hex" true
    (String.length d > 2 && String.for_all (fun c -> c <> '/') d);
  Alcotest.(check bool) "distinct keys, distinct digests" true
    (Store.Cas.digest_of_key "a" <> Store.Cas.digest_of_key "b")

(* ------------------------------ entries ----------------------------- *)

let analysis_fixture =
  lazy
    (Experiments.clear_cache ();
     let a = Analysis.analyze config "gcc" in
     Experiments.clear_cache ();
     a)

let test_entry_roundtrip () =
  let a = Lazy.force analysis_fixture in
  let payload = Store.Codec.encode_entry a in
  match Store.Codec.decode_entry payload with
  | Error reason -> Alcotest.failf "decode failed: %s" reason
  | Ok (run, curve) ->
      let b = Analysis.of_parts config ~name:a.Analysis.name ~run ~curve in
      (* The rendered report covers every derived statistic; byte
         equality here is the bit-identity guarantee for cached hits. *)
      Alcotest.(check string) "report byte-identical after reload"
        (Fuzzy.Report.analyze_report a) (Fuzzy.Report.analyze_report b)

let test_entry_decode_rejects_garbage () =
  (match Store.Codec.decode_entry "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty payload accepted");
  match Store.Codec.decode_entry "fuzzyresult 999\ncurve 0 0x0p+0\nrun 0\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign format version accepted"

(* Keys [parse_key]'s number parsers take but [canonical_key] never
   writes: each spells one field of a canonical key another way.  None
   may parse, and [warm] must leave entries stored under them in place,
   unread, as it does a foreign stamp's. *)
let non_canonical_keys () =
  let key = Store.Codec.canonical_key { config with Analysis.scale = 0.25; kmax = 25 } "gcc" in
  List.map
    (fun (line, respelled) ->
      let lines = String.split_on_char '\n' key in
      if not (List.mem line lines) then Alcotest.failf "no line %S in the key" line;
      String.concat "\n" (List.map (fun l -> if l = line then respelled else l) lines))
    [
      ("seed 42", "seed 0x2a");
      ("seed 42", "seed +42");
      ("seed 42", "seed 4_2");
      ("scale 0x1p-2", "scale 0.25");
      ("kmax 25", "kmax 0o31");
    ]

let test_key_rejects_non_canonical () =
  List.iter
    (fun key ->
      Alcotest.(check bool) (String.escaped key) true
        (Option.is_none (Store.Codec.parse_key ~jobs:1 key)))
    (non_canonical_keys ());
  isolated (fun () ->
      let dir = fresh_dir () in
      let cas = Store.Cas.open_dir ~dir in
      let payload = Store.Codec.encode_entry (Lazy.force analysis_fixture) in
      List.iter (fun key -> Store.Cas.put cas ~key payload) (non_canonical_keys ());
      Store.Result_cache.attach ~dir;
      Alcotest.(check int) "nothing warmed" 0 (Store.Result_cache.warm ~jobs:1 ());
      let c = Option.get (Store.Result_cache.counters ()) in
      Alcotest.(check (pair int int)) "hits, corrupt" (0, 0) (c.Store.Cas.hits, c.Store.Cas.corrupt);
      let st = Store.Cas.stats cas in
      Alcotest.(check (pair int int)) "live and quarantined entries" (5, 0)
        (st.Store.Cas.entries, st.Store.Cas.quarantined))

let test_cas_put_find () =
  let cas = Store.Cas.open_dir ~dir:(fresh_dir ()) in
  Alcotest.(check (option string)) "empty store misses" None (Store.Cas.find cas ~key:"k");
  Store.Cas.put cas ~key:"k" "payload bytes";
  Alcotest.(check (option string)) "hit after put" (Some "payload bytes")
    (Store.Cas.find cas ~key:"k");
  (* Entries are immutable: a second put must not change the bytes. *)
  Store.Cas.put cas ~key:"k" "different bytes";
  Alcotest.(check (option string)) "append-only: first write wins" (Some "payload bytes")
    (Store.Cas.find cas ~key:"k");
  let c = Store.Cas.counters cas in
  Alcotest.(check int) "one write" 1 c.Store.Cas.writes;
  Alcotest.(check int) "one miss" 1 c.Store.Cas.misses;
  Alcotest.(check int) "two hits" 2 c.Store.Cas.hits

let test_cas_fold_order () =
  let cas = Store.Cas.open_dir ~dir:(fresh_dir ()) in
  let keys = [ "alpha"; "beta"; "gamma"; "delta"; "epsilon" ] in
  List.iter (fun k -> Store.Cas.put cas ~key:k ("payload of " ^ k)) keys;
  let seen = List.rev (Store.Cas.fold cas ~init:[] ~f:(fun acc ~key ~payload:_ -> key :: acc)) in
  Alcotest.(check int) "all entries" (List.length keys) (List.length seen);
  let digests = List.map Store.Cas.digest_of_key seen in
  Alcotest.(check bool) "deterministic digest order" true
    (digests = List.sort compare digests)

(* An entry file written before Cas's trailer moved to Stats.Checksum
   (gzip, the config of test_extensions' trace fixtures).  Re-putting its
   key and payload must write the same bytes, and its payload must carry
   the pinned v2 trace archive. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_cas_fixture () =
  let entry = read_file "fixtures/store-entry.fuzzystore" in
  let key, payload =
    Scanf.sscanf entry "fuzzystore %d %d %d\n%n" (fun _ key_len payload_len pos ->
        (String.sub entry pos key_len, String.sub entry (pos + key_len + 1) payload_len))
  in
  let cas = Store.Cas.open_dir ~dir:(fresh_dir ()) in
  Store.Cas.put cas ~key payload;
  Alcotest.(check string) "put writes the pinned bytes" entry
    (read_file (Store.Cas.path_of_digest cas (Store.Cas.digest_of_key key)));
  Alcotest.(check (option string)) "find returns the payload" (Some payload)
    (Store.Cas.find cas ~key);
  match Store.Codec.decode_entry payload with
  | Error reason -> Alcotest.failf "fixture payload: %s" reason
  | Ok (run, _) ->
      Alcotest.(check string) "payload carries the pinned trace"
        (read_file "fixtures/trace-v2.fuzzytrace")
        (Sampling.Trace_io.to_string run)

(* An entry file whose trailer and checksum are valid but whose header
   declares negative section lengths that still add up to its body
   length: a quarantined miss, not an exception out of [find]. *)
let test_cas_negative_lengths () =
  let cas = Store.Cas.open_dir ~dir:(fresh_dir ()) in
  Store.Cas.put cas ~key:"k" "payload";
  let path = Store.Cas.path_of_digest cas (Store.Cas.digest_of_key "k") in
  List.iter
    (fun body ->
      let oc = open_out_bin path in
      output_string oc (Stats.Checksum.seal ~tag:"fuzzystore" body);
      close_out oc;
      Alcotest.(check (option string)) (String.escaped body) None (Store.Cas.find cas ~key:"k"))
    [
      Printf.sprintf "fuzzystore %d -1 -1\n" Store.Version.entry_format;
      Printf.sprintf "fuzzystore %d 1 -2\nk" Store.Version.entry_format;
    ];
  Alcotest.(check int) "both quarantined" 2 (Store.Cas.stats cas).Store.Cas.quarantined

(* Any single-byte flip or truncation of an entry file must read as a
   quarantined miss — and a fresh put of the same key must work again. *)
let qcheck_cas_corruption =
  QCheck2.Test.make ~name:"store entry corruption reads as quarantined miss" ~count:60
    QCheck2.Gen.(pair (int_range 0 1_000_000) bool)
    (fun (raw_pos, truncate) ->
      let cas = Store.Cas.open_dir ~dir:(fresh_dir ()) in
      let key = "corruption victim" in
      Store.Cas.put cas ~key "some reasonably long payload: 0123456789abcdef";
      let path = Store.Cas.path_of_digest cas (Store.Cas.digest_of_key key) in
      let ic = open_in_bin path in
      let content =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let pos = raw_pos mod String.length content in
      let corrupted =
        if truncate then String.sub content 0 pos
        else begin
          let b = Bytes.of_string content in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
          Bytes.to_string b
        end
      in
      let oc = open_out_bin path in
      output_string oc corrupted;
      close_out oc;
      let miss = Store.Cas.find cas ~key = None in
      let counters = Store.Cas.counters cas in
      let quarantined = (Store.Cas.stats cas).Store.Cas.quarantined = 1 in
      (* The live path is clear again: a re-put stores fresh valid bytes. *)
      Store.Cas.put cas ~key "replacement payload";
      miss && quarantined
      && counters.Store.Cas.corrupt = 1
      && Store.Cas.find cas ~key = Some "replacement payload")

let test_cas_verify_and_gc () =
  let cas = Store.Cas.open_dir ~dir:(fresh_dir ()) in
  List.iter
    (fun k -> Store.Cas.put cas ~key:k ("payload " ^ k))
    [ "one"; "two"; "three"; "four" ];
  let ok, bad = Store.Cas.verify cas in
  Alcotest.(check int) "all valid" 4 ok;
  Alcotest.(check (list string)) "no bad digests" [] bad;
  (* Age two entries far into the past; gc must evict exactly those,
     oldest first, regardless of directory order. *)
  let old1 = Store.Cas.digest_of_key "one" and old2 = Store.Cas.digest_of_key "three" in
  Unix.utimes (Store.Cas.path_of_digest cas old1) 1000.0 1000.0;
  Unix.utimes (Store.Cas.path_of_digest cas old2) 2000.0 2000.0;
  let evicted = Store.Cas.gc cas ~max_entries:2 () in
  Alcotest.(check (list string)) "LRU eviction order" [ old1; old2 ] evicted;
  Alcotest.(check int) "two entries left" 2 (Store.Cas.stats cas).Store.Cas.entries;
  Alcotest.(check (list string)) "gc with no budgets is a no-op" []
    (Store.Cas.gc cas ())

(* --------------------------- tiered lookup -------------------------- *)

let test_tier_persist_and_reload () =
  isolated (fun () ->
      let dir = fresh_dir () in
      Store.Result_cache.attach ~dir;
      let first = Fuzzy.Report.analyze_report (Experiments.analyze_cached config "gcc") in
      let c = Option.get (Store.Result_cache.counters ()) in
      Alcotest.(check int) "computed result persisted" 1 c.Store.Cas.writes;
      (* Drop the memory tier: the next lookup must come from disk and
         produce byte-identical output, computing nothing new. *)
      Experiments.clear_cache ();
      let second = Fuzzy.Report.analyze_report (Experiments.analyze_cached config "gcc") in
      Alcotest.(check string) "disk hit byte-identical to compute" first second;
      let c = Option.get (Store.Result_cache.counters ()) in
      Alcotest.(check int) "served from disk" 1 c.Store.Cas.hits;
      Alcotest.(check int) "nothing new written" 1 c.Store.Cas.writes)

let test_tier_corrupt_entry_recomputes () =
  isolated (fun () ->
      let dir = fresh_dir () in
      Store.Result_cache.attach ~dir;
      let first = Fuzzy.Report.analyze_report (Experiments.analyze_cached config "gcc") in
      let cas = Option.get (Store.Result_cache.attached ()) in
      let key = Store.Codec.canonical_key config "gcc" in
      let path = Store.Cas.path_of_digest cas (Store.Cas.digest_of_key key) in
      (* Bit-flip one payload byte mid-file. *)
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      ignore (Unix.lseek fd 200 Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.of_string "X") 0 1);
      Unix.close fd;
      Experiments.clear_cache ();
      let second = Fuzzy.Report.analyze_report (Experiments.analyze_cached config "gcc") in
      Alcotest.(check string) "recompute after corruption is byte-identical" first second;
      let c = Option.get (Store.Result_cache.counters ()) in
      Alcotest.(check int) "corrupt entry quarantined" 1 c.Store.Cas.corrupt;
      Alcotest.(check int) "fresh entry rewritten" 2 c.Store.Cas.writes;
      Alcotest.(check int) "quarantine holds the bad file" 1
        (Store.Cas.stats cas).Store.Cas.quarantined)

let test_warm_restart_in_process () =
  isolated (fun () ->
      let dir = fresh_dir () in
      Store.Result_cache.attach ~dir;
      let first = Fuzzy.Report.analyze_report (Experiments.analyze_cached config "gcc") in
      (* Simulate a restart: detach, wipe memory, re-attach, warm. *)
      Store.Result_cache.detach ();
      Experiments.clear_cache ();
      Store.Result_cache.attach ~dir;
      let loaded = Store.Result_cache.warm ~jobs:config.Analysis.jobs () in
      Alcotest.(check int) "one analysis warmed" 1 loaded;
      Alcotest.(check bool) "memory tier already holds it" true
        (Experiments.cached config "gcc");
      let second = Fuzzy.Report.analyze_report (Experiments.analyze_cached config "gcc") in
      Alcotest.(check string) "warmed result byte-identical" first second;
      let c = Option.get (Store.Result_cache.counters ()) in
      Alcotest.(check int) "warm load counted as store hit" 1 c.Store.Cas.hits;
      Alcotest.(check int) "warm wrote nothing" 0 c.Store.Cas.writes)

(* Warm's store accounting, one entry of each kind: a key that parses
   counts a hit before its payload is decoded, as the [Cas.find] in
   [probe] does, so an entry whose payload fails to decode is a hit and a
   quarantine; a foreign key is neither; a damaged file is a quarantine
   only. *)
let test_warm_accounting () =
  isolated (fun () ->
      let dir = fresh_dir () in
      let cas = Store.Cas.open_dir ~dir in
      let key = Store.Codec.canonical_key config in
      let payload = Store.Codec.encode_entry (Analysis.analyze config "gzip") in
      Store.Cas.put cas ~key:(key "gzip") payload;
      Store.Cas.put cas ~key:(with_foreign_stamp (key "gzip")) payload;
      Store.Cas.put cas ~key:(key "mcf") payload;
      let path = Store.Cas.path_of_digest cas (Store.Cas.digest_of_key (key "mcf")) in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      ignore (Unix.lseek fd 200 Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.of_string "X") 0 1);
      Unix.close fd;
      Store.Cas.put cas ~key:(key "gcc") "not a result payload";
      Store.Result_cache.attach ~dir;
      Alcotest.(check int) "one analysis warmed" 1 (Store.Result_cache.warm ~jobs:1 ());
      let c = Option.get (Store.Result_cache.counters ()) in
      Alcotest.(check (list int)) "hits, misses, writes, corrupt" [ 2; 0; 0; 2 ]
        [ c.Store.Cas.hits; c.Store.Cas.misses; c.Store.Cas.writes; c.Store.Cas.corrupt ];
      let s = Store.Cas.stats cas in
      Alcotest.(check (pair int int)) "live and quarantined entries" (2, 2)
        (s.Store.Cas.entries, s.Store.Cas.quarantined))

(* The memory tier keys on the config by value: configs whose floats
   differ only past the sixth decimal have distinct store keys, so they
   must not share a memory entry either. *)
let test_memory_key_exact () =
  isolated (fun () ->
      let a = Lazy.force analysis_fixture in
      Experiments.preload a;
      Alcotest.(check bool) "same config hits" true (Experiments.cached config "gcc");
      Alcotest.(check bool) "jobs is not part of the key" true
        (Experiments.cached { config with Analysis.jobs = 3 } "gcc");
      List.iter
        (fun (field, (near : Analysis.config)) ->
          Alcotest.(check bool)
            (field ^ ": distinct store keys")
            true
            (Store.Codec.canonical_key near "gcc" <> Store.Codec.canonical_key config "gcc");
          Alcotest.(check bool)
            (field ^ ": memory tier misses")
            false (Experiments.cached near "gcc");
          let b = Experiments.analyze_cached near "gcc" in
          Alcotest.(check bool)
            (field ^ ": analysed under its own config")
            true (b.Analysis.config = near))
        [
          ("kopt_tol", { config with Analysis.kopt_tol = 0.0050004 });
          ("scale", { config with Analysis.scale = 0.0200001 });
        ])

(* Six copies of one name through [analyze_many] at jobs 4: the copies
   land on the pool as six tasks, and single-flight makes them one disk
   probe and one persist. *)
let test_single_flight_persists_once () =
  isolated (fun () ->
      let probes = ref 0 and persists = ref 0 in
      let mu = Mutex.create () in
      let count r =
        Mutex.lock mu;
        incr r;
        Mutex.unlock mu
      in
      Experiments.set_disk_tier
        (Some
           {
             Experiments.probe =
               (fun _ _ ->
                 count probes;
                 None);
             persist = (fun _ _ _ -> count persists);
           });
      let cfg = { config with Analysis.jobs = 4 } in
      ignore (Experiments.analyze_many cfg [ "gcc"; "gcc"; "gcc"; "gcc"; "gcc"; "gcc" ]);
      Alcotest.(check int) "one disk probe" 1 !probes;
      Alcotest.(check int) "one persist" 1 !persists)

(* N copies of one key at once, mapped onto the pool and submitted to it
   with nobody awaiting (the server's pattern): every run makes one store
   miss and one store write, and every copy reports what a serial analyze
   does.  A thread waiting on its own CV fan-out runs only that fan-out,
   so the computing thread never picks up a duplicate of its own key. *)
let test_duplicates_compute_once () =
  let expected = Fuzzy.Report.analyze_report (Lazy.force analysis_fixture) in
  let report cfg name = Fuzzy.Report.analyze_report (Experiments.analyze_cached cfg name) in
  let mapped cfg n = Parallel.Pool.map (Analysis.pool cfg) (report cfg) (Array.make n "gcc") in
  let submitted cfg n =
    let pool = Analysis.pool cfg in
    let reports = Array.make n "" and left = ref n in
    let mu = Mutex.create () and all_done = Condition.create () in
    for i = 0 to n - 1 do
      ignore
        (Parallel.Pool.submit pool (fun () ->
             let r = report cfg "gcc" in
             Mutex.lock mu;
             reports.(i) <- r;
             decr left;
             if !left = 0 then Condition.signal all_done;
             Mutex.unlock mu))
    done;
    Mutex.lock mu;
    while !left > 0 do
      Condition.wait all_done mu
    done;
    Mutex.unlock mu;
    reports
  in
  List.iter
    (fun (how, run) ->
      List.iter
        (fun jobs ->
          List.iter
            (fun n ->
              isolated (fun () ->
                  Store.Result_cache.attach ~dir:(fresh_dir ());
                  let what = Printf.sprintf "%s, %d copies at jobs %d" how n jobs in
                  Array.iter
                    (Alcotest.(check string) (what ^ ": report = serial analyze") expected)
                    (run { config with Analysis.jobs } n);
                  let c = Option.get (Store.Result_cache.counters ()) in
                  Alcotest.(check (pair int int))
                    (what ^ ": store misses, writes")
                    (1, 1)
                    (c.Store.Cas.misses, c.Store.Cas.writes)))
            [ 2; 6 ])
        [ 1; 2; 4 ])
    [ ("map", mapped); ("submit", submitted) ]

let () =
  Alcotest.run "store"
    [
      ( "codec",
        [
          Alcotest.test_case "key roundtrip" `Quick test_key_roundtrip;
          Alcotest.test_case "key ignores jobs" `Quick test_key_ignores_jobs;
          Alcotest.test_case "foreign keys rejected" `Quick test_key_rejects_foreign;
          Alcotest.test_case "non-canonical keys rejected" `Quick
            test_key_rejects_non_canonical;
          Alcotest.test_case "digest shape" `Quick test_digest_shape;
          Alcotest.test_case "entry roundtrip bit-identical" `Quick test_entry_roundtrip;
          Alcotest.test_case "entry decode rejects garbage" `Quick
            test_entry_decode_rejects_garbage;
        ] );
      ( "cas",
        [
          Alcotest.test_case "put/find/immutability" `Quick test_cas_put_find;
          Alcotest.test_case "fold order deterministic" `Quick test_cas_fold_order;
          Alcotest.test_case "pinned entry fixture" `Quick test_cas_fixture;
          QCheck_alcotest.to_alcotest qcheck_cas_corruption;
          Alcotest.test_case "verify and deterministic gc" `Quick test_cas_verify_and_gc;
          Alcotest.test_case "negative section lengths" `Quick test_cas_negative_lengths;
        ] );
      ( "tiers",
        [
          Alcotest.test_case "persist and reload from disk" `Quick
            test_tier_persist_and_reload;
          Alcotest.test_case "corrupt entry falls back to recompute" `Quick
            test_tier_corrupt_entry_recomputes;
          Alcotest.test_case "warm restart in process" `Quick test_warm_restart_in_process;
          Alcotest.test_case "warm accounting per entry kind" `Quick test_warm_accounting;
          Alcotest.test_case "single-flight persists once" `Quick
            test_single_flight_persists_once;
          Alcotest.test_case "memory key separates close floats" `Quick
            test_memory_key_exact;
          Alcotest.test_case "duplicate keys on the pool compute once" `Quick
            test_duplicates_compute_once;
        ] );
    ]
