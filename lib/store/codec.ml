(* Canonical serialization for store keys and payloads.

   The key is a small line-oriented text block covering everything an
   analysis result depends on: the code-version stamp, the workload name,
   and every {!Analysis.config} field except [jobs] (results are
   bit-identical for every jobs count, so caching on it would only split
   the store).  Floats print as %h hex-floats, so the key -> config ->
   key roundtrip is exact and two configs share a key iff they would
   produce the same bytes.

   The payload persists only the expensive parts of an analysis — the
   sample run (as a Trace_io v2 archive, reusing its checksummed format
   wholesale) and the cross-validated RE curve.  Everything else in
   {!Analysis.t} is a cheap deterministic fold over the run and is
   rebuilt on load by {!Analysis.of_parts}. *)

let canonical_key (config : Fuzzy.Analysis.config) name =
  let b = Buffer.create 256 in
  Printf.bprintf b "fuzzykey %d\n" Version.entry_format;
  Printf.bprintf b "stamp %s\n" Version.code_stamp;
  Printf.bprintf b "name %s\n" name;
  Printf.bprintf b "machine %s\n" config.Fuzzy.Analysis.machine.March.Config.name;
  Printf.bprintf b "seed %d\n" config.Fuzzy.Analysis.seed;
  Printf.bprintf b "scale %h\n" config.Fuzzy.Analysis.scale;
  Printf.bprintf b "intervals %d\n" config.Fuzzy.Analysis.intervals;
  Printf.bprintf b "samples_per_interval %d\n" config.Fuzzy.Analysis.samples_per_interval;
  Printf.bprintf b "period %d\n" config.Fuzzy.Analysis.period;
  Printf.bprintf b "kmax %d\n" config.Fuzzy.Analysis.kmax;
  Printf.bprintf b "folds %d\n" config.Fuzzy.Analysis.folds;
  Printf.bprintf b "kopt_tol %h\n" config.Fuzzy.Analysis.kopt_tol;
  Buffer.contents b

(* Split into lines and read "<field> <rest-of-line>" pairs in the fixed
   order [canonical_key] writes them.  [jobs] is not part of the key, so
   the caller supplies the value for the config being rebuilt.  A key is
   accepted only if [canonical_key] writes it back byte for byte: the
   number parsers also take forms it never writes ("0x2a", "+42", "4_2",
   "0.25", "0o31"), and [find] for the canonical key could never read an
   entry stored under one of those. *)
let parse_key ~jobs key =
  let lines = String.split_on_char '\n' key in
  let field name line =
    let prefix = name ^ " " in
    let plen = String.length prefix in
    if String.length line > plen && String.sub line 0 plen = prefix then
      Some (String.sub line plen (String.length line - plen))
    else None
  in
  let ( let* ) = Option.bind in
  match lines with
  | [ _magic; _stamp; name_l; machine_l; seed_l; scale_l; intervals_l; spi_l; period_l;
      kmax_l; folds_l; tol_l; "" ] ->
      let* name = field "name" name_l in
      let* machine_name = field "machine" machine_l in
      let* machine =
        match March.Config.by_name machine_name with
        | m -> Some m
        | exception Not_found -> None
      in
      let int_field label line =
        let* s = field label line in
        int_of_string_opt s
      in
      let float_field label line =
        let* s = field label line in
        float_of_string_opt s
      in
      let* seed = int_field "seed" seed_l in
      let* scale = float_field "scale" scale_l in
      let* intervals = int_field "intervals" intervals_l in
      let* samples_per_interval = int_field "samples_per_interval" spi_l in
      let* period = int_field "period" period_l in
      let* kmax = int_field "kmax" kmax_l in
      let* folds = int_field "folds" folds_l in
      let* kopt_tol = float_field "kopt_tol" tol_l in
      let config =
        {
          Fuzzy.Analysis.seed;
          scale;
          machine;
          intervals;
          samples_per_interval;
          period;
          kmax;
          folds;
          kopt_tol;
          jobs;
        }
      in
      (* The magic line, the stamp and every number's spelling are
         checked here. *)
      if String.equal (canonical_key config name) key then Some (config, name) else None
  | _ -> None

(* ----------------------------- payloads ----------------------------- *)

let encode_entry (a : Fuzzy.Analysis.t) =
  let archive = Sampling.Trace_io.to_string a.Fuzzy.Analysis.run in
  let curve = a.Fuzzy.Analysis.curve in
  let n = Array.length curve.Rtree.Cv.k_values in
  let b = Buffer.create (String.length archive + (n * 48) + 128) in
  Printf.bprintf b "fuzzyresult %d\n" Version.entry_format;
  Printf.bprintf b "curve %d %h\n" n curve.Rtree.Cv.variance;
  for i = 0 to n - 1 do
    Printf.bprintf b "%d %h %h\n" curve.Rtree.Cv.k_values.(i) curve.Rtree.Cv.e.(i)
      curve.Rtree.Cv.re.(i)
  done;
  Printf.bprintf b "run %d\n" (String.length archive);
  Buffer.add_string b archive;
  Buffer.contents b

let decode_entry payload =
  (* Cursor over [payload]; the embedded trace archive is length-prefixed
     raw bytes, so everything reads by explicit position, not by line
     splitting, and the archive is decoded where it lies. *)
  let pos = ref 0 in
  let fail reason = raise (Failure ("store payload: " ^ reason)) in
  let next_line () =
    match String.index_from_opt payload !pos '\n' with
    | None -> fail "truncated line"
    | Some nl ->
        let line = String.sub payload !pos (nl - !pos) in
        pos := nl + 1;
        line
  in
  match
    let magic = next_line () in
    if magic <> Printf.sprintf "fuzzyresult %d" Version.entry_format then
      fail "bad payload magic";
    let n, variance =
      try Scanf.sscanf (next_line ()) "curve %d %h%!" (fun n v -> (n, v))
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> fail "bad curve header"
    in
    if n < 0 || n > 100_000 then fail "implausible curve length";
    let k_values = Array.make n 0 in
    let e = Array.make n 0.0 in
    let re = Array.make n 0.0 in
    for i = 0 to n - 1 do
      try
        Scanf.sscanf (next_line ()) "%d %h %h%!" (fun k ev rv ->
            k_values.(i) <- k;
            e.(i) <- ev;
            re.(i) <- rv)
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> fail "bad curve point"
    done;
    let archive_len =
      try Scanf.sscanf (next_line ()) "run %d%!" (fun l -> l)
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> fail "bad run header"
    in
    if archive_len < 0 || !pos + archive_len <> String.length payload then
      fail "run length disagrees with payload size";
    let run =
      Sampling.Trace_io.of_string ~label:"<store entry>" ~pos:!pos ~len:archive_len payload
    in
    (run, { Rtree.Cv.k_values; e; re; variance })
  with
  | result -> Ok result
  | exception Failure reason -> Error reason
  | exception Scanf.Scan_failure reason -> Error reason
  | exception Invalid_argument reason -> Error reason
