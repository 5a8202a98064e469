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
  let lines = String.split_on_char '\n' body in
  let header, sample_lines =
    match lines with
    | h :: rest -> (h, Array.of_list rest)
    | [] -> fail_fmt "Trace_io.load: %s: no header" path
  in
  let workload, machine, period, ctx, io, os, total_instrs, total_cycles, n =
    try
      Scanf.sscanf header "fuzzytrace %d %s %s %d %d %d %d %d %h %d"
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
  (* The split of a '\n'-terminated body ends with one empty element. *)
  if n < 0 || Array.length sample_lines < n + 1 then
    fail_fmt "Trace_io.load: %d sample lines, header declares %d"
      (Array.length sample_lines - 1)
      n;
  let samples =
    Array.init n (fun i ->
        let line = sample_lines.(i) in
        try
          Scanf.sscanf line "%d %d %d %h %h %h %h %h %d %d %n"
            (fun eip tid instrs cycles work fe exe other os_instrs nregions pos ->
              let rest = String.sub line pos (String.length line - pos) in
              let fields =
                List.filter (fun s -> s <> "") (String.split_on_char ' ' rest)
              in
              if List.length fields <> 2 * nregions then
                fail_fmt "Trace_io.load: sample %d region arity" i;
              let arr =
                try Array.of_list (List.map int_of_string fields)
                with Failure _ -> fail_fmt "Trace_io.load: sample %d: bad region field" i
              in
              let region_instrs =
                Array.init nregions (fun k -> (arr.(2 * k), arr.((2 * k) + 1)))
              in
              {
                Driver.eip;
                tid;
                instrs;
                cycles;
                breakdown = { March.Breakdown.work; fe; exe; other };
                os_instrs;
                region_instrs;
              })
        with
        | Scanf.Scan_failure m -> fail_fmt "Trace_io.load: sample %d: %s" i m
        | End_of_file -> fail_fmt "Trace_io.load: sample %d: truncated line" i)
  in
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
