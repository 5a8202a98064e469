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

   Sample lines are decoded by position, one cursor over the body, in
   exactly the grammar [render_run] writes: one space between fields and
   a '\n' straight after the last region pair.  An int is -?[0-9]+ within
   the int range (min_int included, overflow rejected).  A float is a run
   of the bytes %h prints, either "0x..." or "-0x..." ending in an
   exponent digit, or one of "nan", "-nan", "infinity", "-infinity",
   converted by float_of_string, the conversion Scanf's "%h" ends in.
   Anything else fails with "Trace_io.load: ...", and no line the Scanf
   decoder that this replaced rejected is accepted (test/oracle keeps it
   as the reference).  The header line keeps its Scanf parse.

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

let of_string ~label:path content =
  if String.length content = 0 then fail_fmt "Trace_io.load: %s: empty file" path;
  let file_version =
    try Scanf.sscanf content "fuzzytrace %d" (fun v -> v)
    with Scanf.Scan_failure _ | Failure _ | End_of_file ->
      fail_fmt "Trace_io.load: %s: not a fuzzytrace archive" path
  in
  let body =
    (* v1 predates the trailer: nothing to validate against, so the body
       is the whole file.  Everything newer must carry a valid trailer. *)
    if file_version = 1 then content
    else
      match Stats.Checksum.unseal ~tag:"fuzzytrace" content with
      | Ok body -> body
      | Error reason -> fail_fmt "Trace_io.load: %s: %s" path reason
  in
  let len = String.length body in
  let header_end = Option.value (String.index_opt body '\n') ~default:len in
  let workload, machine, period, ctx, io, os, total_instrs, total_cycles, n =
    try
      Scanf.sscanf (String.sub body 0 header_end) "fuzzytrace %d %s %s %d %d %d %d %d %h %d"
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
    for i = header_end to len - 1 do
      if String.unsafe_get body i = '\n' then incr lines
    done;
    fail_fmt "Trace_io.load: %d sample lines, header declares %d" !lines n
  in
  (* Every sample line takes at least its '\n', so a count past the
     bytes left is short before any line is read. *)
  if n < 0 || n >= len - header_end then short ();
  let pos = ref (header_end + 1) in
  (* A token ends at a separator; the body ending first cuts the line
     short. *)
  let ends_token p =
    if p >= len then short ()
    else match String.unsafe_get body p with ' ' | '\n' -> true | _ -> false
  in
  let int_token () =
    let neg = !pos < len && String.unsafe_get body !pos = '-' in
    let start = if neg then !pos + 1 else !pos in
    let p = ref start in
    (* [acc] is minus the digits read so far, so min_int fits. *)
    let acc = ref 0 in
    while !p < len && is_digit (String.unsafe_get body !p) do
      let d = Char.code (String.unsafe_get body !p) - Char.code '0' in
      if !acc < min_int / 10 || !acc * 10 < min_int + d then raise Bad_token;
      acc := (!acc * 10) - d;
      incr p
    done;
    if not (ends_token !p) || !p = start || ((not neg) && !acc = min_int) then
      raise Bad_token;
    pos := !p;
    if neg then !acc else - !acc
  in
  let sep c =
    if !pos >= len then short ();
    if String.unsafe_get body !pos <> c then raise Bad_token;
    incr pos
  in
  let next_int () =
    sep ' ';
    int_token ()
  in
  let next_float () =
    sep ' ';
    let start = !pos in
    let p = ref start in
    while !p < len && is_float_byte (String.unsafe_get body !p) do
      incr p
    done;
    if not (ends_token !p) then raise Bad_token;
    pos := !p;
    match float_of_token (String.sub body start (!p - start)) with
    | Some f -> f
    | None -> raise Bad_token
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
      if nregions < 0 || nregions > len - !pos then raise Bad_token;
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
