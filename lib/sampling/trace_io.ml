(* Format (text, line-oriented):
     line 1: "fuzzytrace 2 <workload> <machine> <period> <ctx> <io> <os>
              <total_instrs> <total_cycles> <n_samples>"
     then one line per sample:
     "<eip> <tid> <instrs> <cycles> <work> <fe> <exe> <other> <os_instrs>
      <nregions> (<region> <instrs>)*"
     last line: "fuzzytrace-end <body_bytes> <adler32>" (Stats.Checksum)
   Floats are printed with %h (hex floats) so round-trips are exact.  The
   trailer declares the byte length and Adler-32 checksum of everything
   before it, so a truncated or bit-flipped archive is rejected with a
   clear error before any line is decoded.

   The archive is read in place, as a range of a string (a store entry
   embeds one), and sample lines are decoded by position, one cursor
   over the body, in exactly the grammar [render_run] writes: one space
   between fields and a '\n' straight after the last region pair.  An
   int is -?[0-9]+ within the int range (min_int included, overflow
   rejected).  A float is a run of the bytes %h prints, either "0x..."
   or "-0x..." ending in an exponent digit, or one of "nan", "-nan",
   "infinity", "-infinity", converted by float_of_string, the
   conversion Scanf's "%h" ends in; a token in the shape %h prints for
   finite values is converted from its digits instead ([hex_float]),
   with the same bits.  Anything else fails with "Trace_io.load: ...",
   and no line the Scanf decoder that this replaced rejected is accepted
   (test/oracle keeps it as the reference, and the decoder before the
   digit conversion).  The header line keeps its Scanf parse.

   Version-1 archives have the same header and sample lines but no
   trailer; [load] still reads them (unchecked), [save] always writes
   version 2. *)

let version = 2

let render_run (run : Driver.run) =
  let buf = Buffer.create 65536 in
  Printf.bprintf buf "fuzzytrace %d %s %s %d %d %d %d %d %h %d\n" version
    run.Driver.workload run.Driver.machine run.Driver.period run.Driver.context_switches
    run.Driver.io_blocks run.Driver.os_instr_total run.Driver.total_instrs
    run.Driver.total_cycles
    (Array.length run.Driver.samples);
  Array.iter
    (fun (s : Driver.sample) ->
      let b = s.Driver.breakdown in
      Printf.bprintf buf "%d %d %d %h %h %h %h %h %d %d" s.Driver.eip s.Driver.tid
        s.Driver.instrs s.Driver.cycles b.March.Breakdown.work b.March.Breakdown.fe
        b.March.Breakdown.exe b.March.Breakdown.other s.Driver.os_instrs
        (Array.length s.Driver.region_instrs);
      Array.iter (fun (r, n) -> Printf.bprintf buf " %d %d" r n) s.Driver.region_instrs;
      Buffer.add_char buf '\n')
    run.Driver.samples;
  Buffer.contents buf

let to_string run = Stats.Checksum.seal ~tag:"fuzzytrace" (render_run run)

let save (run : Driver.run) ~path =
  (* Write to a temp file in the target directory and rename into place:
     a crash mid-save can never leave a truncated archive at [path] that
     [load] would then reject.  Same-directory rename keeps the move
     atomic (no cross-filesystem copy). *)
  let tmp = Filename.temp_file ~temp_dir:(Filename.dirname path) ".fuzzytrace" ".tmp" in
  let oc = open_out_bin tmp in
  (try
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () -> output_string oc (to_string run))
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let fail_fmt fmt = Printf.ksprintf failwith fmt

(* A sample-line token outside the grammar. *)
exception Bad_token

let is_digit = function '0' .. '9' -> true | _ -> false

(* The bytes %h prints.  float_of_string also takes '_', blanks after
   the 'p' and upper case, where Scanf's "%h" stops short of them. *)
let is_float_byte = function
  | '0' .. '9' | 'a' .. 'f' | 'x' | 'p' | '.' | '+' | '-' | 'i' | 'n' | 't' | 'y' -> true
  | _ -> false

(* The token must end in a digit: "0x1." and "0x" convert, but Scanf's
   "%h" rejects them before a separator. *)
let float_of_token tok =
  let n = String.length tok in
  let hex_at i = n > i + 2 && tok.[i] = '0' && tok.[i + 1] = 'x' in
  let ok =
    match tok with
    | "nan" | "-nan" | "infinity" | "-infinity" -> true
    | _ -> (hex_at 0 || (hex_at 1 && tok.[0] = '-')) && is_digit tok.[n - 1]
  in
  if ok then float_of_string_opt tok else None

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | _ -> -1

(* The shape %h prints for every finite value,
   "-?0x[01](\.h{1,13})?p[+-]d{1,4}", followed by a separator inside
   [s.[start .. stop-1]].  Returns the separator's index and leaves the
   value in [value.(0)], or returns -1 for any other token.

   The lead digit and at most 13 fraction digits make a mantissa m below
   2^53, so [float_of_int m] is exact, and caml_float_of_hex (the
   conversion float_of_string and Scanf's "%h" end in) computes
   [ldexp m (e - 4 * fraction digits)] for such a token, negated after
   for a '-': the same arithmetic, so the same bits. *)
let hex_float s ~start ~stop value =
  let byte i = if i < stop then String.unsafe_get s i else '\000' in
  let p = if byte start = '-' then start + 1 else start in
  if byte p <> '0' || byte (p + 1) <> 'x' || (byte (p + 2) <> '0' && byte (p + 2) <> '1') then -1
  else
    let m = ref (Char.code (byte (p + 2)) - Char.code '0') in
    let q = ref (p + 3) in
    let fraction_ok =
      byte !q <> '.'
      ||
      let first = !q + 1 in
      q := first;
      while !q - first < 14 && hex_digit (byte !q) >= 0 do
        m := (!m lsl 4) lor hex_digit (byte !q);
        incr q
      done;
      !q > first && !q - first <= 13
    in
    let digits = if byte (p + 3) = '.' then !q - p - 4 else 0 in
    if (not fraction_ok) || byte !q <> 'p' || (byte (!q + 1) <> '+' && byte (!q + 1) <> '-')
    then -1
    else
      let exp_neg = byte (!q + 1) = '-' in
      let first = !q + 2 in
      q := first;
      let e = ref 0 in
      while !q - first < 5 && is_digit (byte !q) do
        e := (!e * 10) + Char.code (byte !q) - Char.code '0';
        incr q
      done;
      if !q = first || !q - first > 4 || (byte !q <> ' ' && byte !q <> '\n') then -1
      else begin
        let e = if exp_neg then - !e else !e in
        let f = Float.ldexp (float_of_int !m) (e - (4 * digits)) in
        value.(0) <- (if byte start = '-' then -.f else f);
        !q
      end

let of_string ~label:path ?(pos = 0) ?len content =
  let len = match len with Some len -> len | None -> String.length content - pos in
  if pos < 0 || len < 0 || pos > String.length content - len then
    invalid_arg "Trace_io.of_string";
  if len = 0 then fail_fmt "Trace_io.load: %s: empty file" path;
  (* The archive is [content.[pos .. pos+len-1]]; everything below reads
     it in place, Scanf included. *)
  let scan_range ~stop fmt f =
    let i = ref pos in
    let next () =
      if !i >= stop then raise End_of_file
      else begin
        let c = String.unsafe_get content !i in
        incr i;
        c
      end
    in
    Scanf.bscanf (Scanf.Scanning.from_function next) fmt f
  in
  let file_version =
    try scan_range ~stop:(pos + len) "fuzzytrace %d" (fun v -> v)
    with Scanf.Scan_failure _ | Failure _ | End_of_file ->
      fail_fmt "Trace_io.load: %s: not a fuzzytrace archive" path
  in
  (* The body's end: v1 predates the trailer, so there is nothing to
     validate against and the body is the whole archive.  Everything
     newer must carry a valid trailer. *)
  let stop =
    if file_version = 1 then pos + len
    else
      match Stats.Checksum.unseal ~tag:"fuzzytrace" content ~pos ~len with
      | Ok body_len -> pos + body_len
      | Error reason -> fail_fmt "Trace_io.load: %s: %s" path reason
  in
  let header_end =
    match String.index_from_opt content pos '\n' with
    | Some i when i < stop -> i
    | Some _ | None -> stop
  in
  let workload, machine, period, ctx, io, os, total_instrs, total_cycles, n =
    try
      scan_range ~stop:header_end "fuzzytrace %d %s %s %d %d %d %d %d %h %d"
        (fun v workload machine period ctx io os ti tc n ->
          if v <> 1 && v <> version then
            fail_fmt "Trace_io.load: version %d, expected 1 or %d" v version;
          (workload, machine, period, ctx, io, os, ti, tc, n))
    with
    | Scanf.Scan_failure m | Failure m -> fail_fmt "Trace_io.load: bad header: %s" m
    | End_of_file ->
        (* A v1 archive cut off inside the header line: no trailer to
           catch it first, so the scan itself runs out of input. *)
        fail_fmt "Trace_io.load: %s: truncated header" path
  in
  (* Too few complete lines.  The count is the newlines after the
     header's own, as a line split of the body would report it. *)
  let short () =
    let lines = ref (-1) in
    for i = header_end to stop - 1 do
      if String.unsafe_get content i = '\n' then incr lines
    done;
    fail_fmt "Trace_io.load: %d sample lines, header declares %d" !lines n
  in
  (* Every sample line takes at least its '\n', so a count past the
     bytes left is short before any line is read. *)
  if n < 0 || n >= stop - header_end then short ();
  let cur = ref (header_end + 1) in
  (* A token ends at a separator; the body ending first cuts the line
     short. *)
  let ends_token p =
    if p >= stop then short ()
    else match String.unsafe_get content p with ' ' | '\n' -> true | _ -> false
  in
  let int_token () =
    let neg = !cur < stop && String.unsafe_get content !cur = '-' in
    let start = if neg then !cur + 1 else !cur in
    let p = ref start in
    (* [acc] is minus the digits read so far, so min_int fits.  18
       digits cannot overflow; only a longer run is checked. *)
    let acc = ref 0 in
    while !p < stop && is_digit (String.unsafe_get content !p) do
      let d = Char.code (String.unsafe_get content !p) - Char.code '0' in
      if !p - start >= 18 && (!acc < min_int / 10 || !acc * 10 < min_int + d) then
        raise Bad_token;
      acc := (!acc * 10) - d;
      incr p
    done;
    if not (ends_token !p) || !p = start || ((not neg) && !acc = min_int) then
      raise Bad_token;
    cur := !p;
    if neg then !acc else - !acc
  in
  let sep c =
    if !cur >= stop then short ();
    if String.unsafe_get content !cur <> c then raise Bad_token;
    incr cur
  in
  let next_int () =
    sep ' ';
    int_token ()
  in
  let value = [| 0.0 |] in
  let next_float () =
    sep ' ';
    let start = !cur in
    let fast = hex_float content ~start ~stop value in
    if fast >= 0 then begin
      cur := fast;
      value.(0)
    end
    else begin
      let p = ref start in
      while !p < stop && is_float_byte (String.unsafe_get content !p) do
        incr p
      done;
      if not (ends_token !p) then raise Bad_token;
      cur := !p;
      match float_of_token (String.sub content start (!p - start)) with
      | Some f -> f
      | None -> raise Bad_token
    end
  in
  let sample i =
    let in_regions = ref false in
    match
      let eip = int_token () in
      let tid = next_int () in
      let instrs = next_int () in
      let cycles = next_float () in
      let work = next_float () in
      let fe = next_float () in
      let exe = next_float () in
      let other = next_float () in
      let os_instrs = next_int () in
      in_regions := true;
      let nregions = next_int () in
      (* A count past the bytes left cannot be met: refuse it before
         allocating for it. *)
      if nregions < 0 || nregions > stop - !cur then raise Bad_token;
      let region_instrs = Array.make nregions (0, 0) in
      for k = 0 to nregions - 1 do
        let region = next_int () in
        region_instrs.(k) <- (region, next_int ())
      done;
      sep '\n';
      {
        Driver.eip;
        tid;
        instrs;
        cycles;
        breakdown = { March.Breakdown.work; fe; exe; other };
        os_instrs;
        region_instrs;
      }
    with
    | s -> s
    | exception Bad_token ->
        fail_fmt "Trace_io.load: sample %d: bad %s" i
          (if !in_regions then "region field" else "field")
  in
  let samples = Array.init n sample in
  {
    Driver.workload;
    machine;
    samples;
    period;
    context_switches = ctx;
    io_blocks = io;
    os_instr_total = os;
    total_instrs;
    total_cycles;
  }

let load ~path =
  let ic = open_in_bin path in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_string ~label:path content
