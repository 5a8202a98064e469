module Rng = Stats.Rng
module Sink = Dbengine.Sink
module Model = Workload.Model
module Code_map = Workload.Code_map

type sample = {
  eip : int;
  tid : int;
  instrs : int;
  cycles : float;
  breakdown : March.Breakdown.t;
  os_instrs : int;
  region_instrs : (int * int) array;
}

type run = {
  workload : string;
  machine : string;
  samples : sample array;
  period : int;
  context_switches : int;
  io_blocks : int;
  os_instr_total : int;
  total_instrs : int;
  total_cycles : float;
}

type meta = {
  stream_workload : string;
  stream_machine : string;
  stream_period : int;
  stream_context_switches : int;
  stream_io_blocks : int;
  stream_os_instr_total : int;
  stream_total_instrs : int;
  stream_total_cycles : float;
  stream_samples : int;
}

let io_stall_cycles = 400.0

(* Instruction-fetch lines sampled per quantum. *)
let code_lines_per_quantum = 48

let stream ?(period = 20_000) (w : Model.t) ~cpu ~rng ~samples
    ~(f : int -> sample -> unit) =
  if samples <= 0 then invalid_arg "Driver.run: samples must be positive";
  if period <= 0 then invalid_arg "Driver.run: period must be positive";
  let sink = Sink.create () in
  let n_threads = Array.length w.Model.threads in
  let cur = ref 0 in
  let since_switch = ref 0 in
  let switches = ref 0 and io_blocks = ref 0 and os_total = ref 0 in
  let total_cycles = ref 0.0 and total_instrs = ref 0 in
  let switch_thread () =
    incr switches;
    Sink.instrs sink ~region:w.Model.os_region w.Model.os_per_switch;
    March.Cpu.pollute cpu ~fraction:w.Model.pollute_on_switch;
    cur := (!cur + 1) mod n_threads;
    since_switch := 0
  in
  for i = 0 to samples - 1 do
    let thread = w.Model.threads.(!cur) in
    let tid = thread.Model.tid in
    let fill_result = thread.Model.fill sink ~budget:period in
    (match fill_result with
    | `Blocked ->
        incr io_blocks;
        Sink.instrs sink ~region:w.Model.os_region w.Model.os_per_io;
        switch_thread ()
    | `Ok ->
        since_switch := !since_switch + period;
        if !since_switch >= w.Model.switch_period then switch_thread ());
    (* [d]'s event arrays view the sink's buffers; [Cpu.run] consumes them
       below, before the next [fill] overwrites them. *)
    let d = Sink.drain sink in
    let inst_lines, inst_weight =
      Code_map.code_lines w.Model.code rng ~region_instrs:d.Sink.region_instrs
        ~max_lines:code_lines_per_quantum
    in
    let weight_of emitted extra =
      if emitted = 0 then 1.0 else float_of_int (emitted + extra) /. float_of_int emitted
    in
    let instrs = max 1 d.Sink.instrs in
    let quantum =
      March.Quantum.make ~instrs ~inst_lines ~inst_weight ~ref_addrs:d.Sink.addrs
        ~n_refs:d.Sink.n_refs
        ~ref_weight:(weight_of d.Sink.n_refs d.Sink.extra_refs)
        ~branch_pcs:d.Sink.branch_pcs ~branch_taken:d.Sink.branch_taken
        ~n_branches:d.Sink.n_branches
        ~branch_weight:(weight_of d.Sink.n_branches d.Sink.extra_branches)
        ~extra_other_cycles:(float_of_int d.Sink.io_waits *. io_stall_cycles)
        ()
    in
    let r = March.Cpu.run cpu quantum in
    (* The sampler records the EIP live at the interrupt: draw one from the
       quantum's per-region instruction mix. *)
    let eip =
      if Array.length d.Sink.region_instrs = 0 then 0
      else begin
        let total = Array.fold_left (fun a (_, n) -> a + n) 0 d.Sink.region_instrs in
        let target = Rng.int rng (max 1 total) in
        let acc = ref 0 and chosen = ref (fst d.Sink.region_instrs.(0)) in
        (try
           Array.iter
             (fun (region, n) ->
               acc := !acc + n;
               if !acc > target then begin
                 chosen := region;
                 raise Exit
               end)
             d.Sink.region_instrs
         with Exit -> ());
        Code_map.draw_eip w.Model.code rng ~region:!chosen
      end
    in
    let os_instrs =
      Array.fold_left
        (fun a (region, n) -> if region = w.Model.os_region then a + n else a)
        0 d.Sink.region_instrs
    in
    os_total := !os_total + os_instrs;
    total_cycles := !total_cycles +. r.March.Cpu.cycles;
    total_instrs := !total_instrs + instrs;
    f i
      {
        eip;
        tid;
        instrs;
        cycles = r.March.Cpu.cycles;
        breakdown = r.March.Cpu.breakdown;
        os_instrs;
        region_instrs = d.Sink.region_instrs;
      }
  done;
  {
    stream_workload = w.Model.name;
    stream_machine = (March.Cpu.config cpu).March.Config.name;
    stream_period = period;
    stream_context_switches = !switches;
    stream_io_blocks = !io_blocks;
    stream_os_instr_total = !os_total;
    stream_total_instrs = !total_instrs;
    stream_total_cycles = !total_cycles;
    stream_samples = samples;
  }

let run ?period (w : Model.t) ~cpu ~rng ~samples =
  if samples <= 0 then invalid_arg "Driver.run: samples must be positive";
  let out = Array.make samples None in
  let m =
    stream ?period w ~cpu ~rng ~samples ~f:(fun i s ->
        out.(i) <- Some s)
  in
  {
    workload = m.stream_workload;
    machine = m.stream_machine;
    samples = Array.map (function Some s -> s | None -> assert false) out;
    period = m.stream_period;
    context_switches = m.stream_context_switches;
    io_blocks = m.stream_io_blocks;
    os_instr_total = m.stream_os_instr_total;
    total_instrs = m.stream_total_instrs;
    total_cycles = m.stream_total_cycles;
  }

let cpi r =
  if r.total_instrs = 0 then 0.0 else r.total_cycles /. float_of_int r.total_instrs

let os_fraction r =
  if r.total_instrs = 0 then 0.0
  else float_of_int r.os_instr_total /. float_of_int r.total_instrs

let context_switches_per_minstr r =
  if r.total_instrs = 0 then 0.0
  else float_of_int r.context_switches *. 1_000_000.0 /. float_of_int r.total_instrs

let unique_eips r =
  let tbl = Hashtbl.create 1024 in
  Array.iter (fun s -> Hashtbl.replace tbl s.eip ()) r.samples;
  Hashtbl.length tbl
