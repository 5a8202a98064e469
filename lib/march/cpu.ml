type t = {
  cfg : Config.t;
  hier : Hierarchy.t;
  branch : Branch.t;
  dtlb : Tlb.t;
  prefetcher : Prefetch.t option;
  mutable pollution_cursor : int;
  mutable levels : Bytes.t;  (* serving level per fetch line or reference, reused *)
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
    levels = Bytes.create 0;
  }

let config t = t.cfg

(* A quantum's fetch lines, its TLB lookups and its data references each
   cost one call into the module that owns the structure (DESIGN.md
   §12a).  The walks write each serving level into [levels], and loops
   fold them into the counters and the unboxed float sums in the order
   every golden was made with.  The TLB and the caches share no state, so
   counting the TLB misses first changes nothing.  A prefetcher installs
   after each reference served by memory, before the next one is walked,
   so with one the data walk returns after each such reference. *)
let run t (q : Quantum.t) =
  let cfg = t.cfg in
  let lats = Hierarchy.latencies t.hier in
  let work = float_of_int q.instrs *. cfg.base_cpi in
  let n_refs = q.n_refs in
  let need = Int.max q.n_inst_lines n_refs in
  if Bytes.length t.levels < need then
    t.levels <- Bytes.create (Int.max need (2 * Bytes.length t.levels));
  let levels = t.levels in
  (* Front end: instruction fetches through L1I/L2/L3, plus branch
     mispredict flushes. *)
  let fe = ref 0.0 in
  let n_lines =
    Cache.walk_batch (Hierarchy.inst_path t.hier) q.inst_lines ~from:0 ~upto:q.n_inst_lines levels
      ~stop_at_memory:false
  in
  for i = 0 to n_lines - 1 do
    let lat = lats.(Bytes.get_uint8 levels i) in
    if lat > 0.0 then fe := !fe +. (q.inst_weight *. lat *. cfg.fetch_miss_factor)
  done;
  let mispredicts =
    Branch.mispredicts t.branch ~pcs:q.branch_pcs ~taken:q.branch_taken ~n:q.n_branches
  in
  let mispredicts_w = float_of_int mispredicts *. q.branch_weight in
  fe := !fe +. (mispredicts_w *. cfg.mispredict_penalty);
  (* Execution: data misses, partially hidden by the core's overlap. *)
  let tlb_misses = Tlb.misses t.dtlb q.ref_addrs n_refs in
  let data = Hierarchy.data_path t.hier in
  let mem = Array.length data in
  (match t.prefetcher with
  | None ->
      ignore
        (Cache.walk_batch data q.ref_addrs ~from:0 ~upto:n_refs levels ~stop_at_memory:false : int)
  | Some pf ->
      (* A confirmed stream pre-installs the following lines, so the next
         sequential accesses hit the L2 instead of memory. *)
      let i = ref 0 in
      while !i < n_refs do
        i := Cache.walk_batch data q.ref_addrs ~from:!i ~upto:n_refs levels ~stop_at_memory:true;
        if Bytes.get_uint8 levels (!i - 1) = mem then
          List.iter (Hierarchy.install t.hier) (Prefetch.on_miss pf q.ref_addrs.(!i - 1))
      done);
  let exe = ref 0.0 and l3m = ref 0 and dm = ref 0 in
  for i = 0 to n_refs - 1 do
    let lvl = Bytes.get_uint8 levels i in
    if lvl > 0 then begin
      incr dm;
      if lvl = mem then incr l3m
    end;
    let lat = lats.(lvl) in
    if lat > 0.0 then exe := !exe +. (q.ref_weight *. lat *. (1.0 -. cfg.overlap))
  done;
  let other =
    (float_of_int tlb_misses *. q.ref_weight *. cfg.tlb_walk_cycles)
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
