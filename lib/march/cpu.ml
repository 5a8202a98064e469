type t = {
  cfg : Config.t;
  hier : Hierarchy.t;
  branch : Branch.t;
  dtlb : Tlb.t;
  prefetcher : Prefetch.t option;
  mutable pollution_cursor : int;
}

type result = {
  cycles : float;
  breakdown : Breakdown.t;
  l3_data_misses : float;
  dcache_misses : float;
  branch_mispredicts : float;
}

let create cfg =
  Config.validate cfg;
  {
    cfg;
    hier = Hierarchy.create cfg;
    branch = Branch.create ~table_bits:14 ();
    dtlb = Tlb.create ~entries:cfg.tlb_entries ~page_bytes:cfg.page_bytes;
    prefetcher =
      (if cfg.Config.enable_prefetch then
         Some (Prefetch.create ~line_bytes:cfg.Config.l2.Config.line_bytes ())
       else None);
    pollution_cursor = 0x7000_0000_0000;
  }

let config t = t.cfg

(* Loops rather than [Array.iter] closures keep the float accumulators
   unboxed; the accumulation order is the one every golden was made with.
   Each reference is one [Cache.walk] down its path, whose index reads
   the stall cycles out of an unboxed latency table. *)
let run t (q : Quantum.t) =
  let cfg = t.cfg in
  let lats = Hierarchy.latencies t.hier in
  let work = float_of_int q.instrs *. cfg.base_cpi in
  (* Front end: instruction fetches through L1I/L2/L3, plus branch
     mispredict flushes. *)
  let fe = ref 0.0 in
  let inst = Hierarchy.inst_path t.hier in
  for i = 0 to Array.length q.inst_lines - 1 do
    let lat = lats.(Cache.walk inst q.inst_lines.(i)) in
    if lat > 0.0 then fe := !fe +. (q.inst_weight *. lat *. cfg.fetch_miss_factor)
  done;
  let mispredicts =
    Branch.mispredicts t.branch ~pcs:q.branch_pcs ~taken:q.branch_taken ~n:q.n_branches
  in
  let mispredicts_w = float_of_int mispredicts *. q.branch_weight in
  fe := !fe +. (mispredicts_w *. cfg.mispredict_penalty);
  (* Execution: data misses, partially hidden by the core's overlap. *)
  let exe = ref 0.0 and tlb_misses = ref 0 and l3m = ref 0 and dm = ref 0 in
  let data = Hierarchy.data_path t.hier in
  let mem = Array.length data in
  for i = 0 to q.n_refs - 1 do
    let addr = q.ref_addrs.(i) in
    if not (Tlb.access t.dtlb addr) then incr tlb_misses;
    let lvl = Cache.walk data addr in
    if lvl > 0 then begin
      incr dm;
      if lvl = mem then begin
        incr l3m;
        (* A confirmed stream pre-installs the following lines, so the
           next sequential accesses hit the L2 instead of memory. *)
        match t.prefetcher with
        | Some pf -> List.iter (Hierarchy.install t.hier) (Prefetch.on_miss pf addr)
        | None -> ()
      end
    end;
    let lat = lats.(lvl) in
    if lat > 0.0 then exe := !exe +. (q.ref_weight *. lat *. (1.0 -. cfg.overlap))
  done;
  let other =
    (float_of_int !tlb_misses *. q.ref_weight *. cfg.tlb_walk_cycles)
    +. (float_of_int q.instrs *. cfg.other_base_cpi)
    +. q.extra_other_cycles
  in
  let breakdown = { Breakdown.work; fe = !fe; exe = !exe; other } in
  {
    cycles = Breakdown.total breakdown;
    breakdown;
    l3_data_misses = float_of_int !l3m *. q.ref_weight;
    dcache_misses = float_of_int !dm *. q.ref_weight;
    branch_mispredicts = mispredicts_w;
  }

let pollute t ~fraction =
  if fraction < 0.0 || fraction > 1.0 then invalid_arg "Cpu.pollute: fraction out of [0,1]";
  (* Touch a moving window of otherwise-unused lines sized to displace the
     requested share of the L1D and a proportional slice of the L2. *)
  let l1 = Hierarchy.l1d t.hier in
  let lines = int_of_float (fraction *. float_of_int (Cache.sets l1 * Cache.ways l1)) in
  let line_bytes = Cache.line_bytes l1 in
  for i = 0 to lines - 1 do
    let addr = t.pollution_cursor + (i * line_bytes) in
    ignore (Hierarchy.access_data t.hier addr : Hierarchy.level)
  done;
  t.pollution_cursor <- t.pollution_cursor + (max 1 lines * line_bytes)
