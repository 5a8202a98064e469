(* Tests for the microarchitecture model. *)

module Cache = March.Cache
module Branch = March.Branch
module Tlb = March.Tlb
module Config = March.Config
module Hierarchy = March.Hierarchy
module Breakdown = March.Breakdown
module Quantum = March.Quantum
module Cpu = March.Cpu

(* ------------------------------- Cache ----------------------------- *)

let test_cache_hit_after_fill () =
  let c = Cache.create ~size_bytes:4096 ~ways:4 ~line_bytes:64 in
  Alcotest.(check bool) "first access misses" false (Cache.access c 0x1000);
  Alcotest.(check bool) "second access hits" true (Cache.access c 0x1000);
  Alcotest.(check bool) "same line hits" true (Cache.access c 0x103F);
  Alcotest.(check bool) "next line misses" false (Cache.access c 0x1040)

let test_cache_lru_eviction () =
  (* Direct-mapped-ish: 2 ways, force 3 conflicting lines. *)
  let c = Cache.create ~size_bytes:128 ~ways:2 ~line_bytes:64 in
  (* One set only: 128 / (2*64) = 1. *)
  Alcotest.(check int) "one set" 1 (Cache.sets c);
  ignore (Cache.access c 0x0000);
  ignore (Cache.access c 0x1000);
  ignore (Cache.access c 0x0000);
  (* touch A so B is the LRU *)
  ignore (Cache.access c 0x2000);
  (* evicts B *)
  Alcotest.(check bool) "A still resident" true (Cache.access c 0x0000);
  Alcotest.(check bool) "B evicted" false (Cache.access c 0x1000)

let test_cache_miss_rate () =
  let c = Cache.create ~size_bytes:4096 ~ways:4 ~line_bytes:64 in
  for i = 0 to 63 do
    ignore (Cache.access c (i * 64))
  done;
  Alcotest.(check (float 1e-9)) "all cold misses" 1.0 (Cache.miss_rate c);
  Cache.reset_stats c;
  for i = 0 to 63 do
    ignore (Cache.access c (i * 64))
  done;
  Alcotest.(check (float 1e-9)) "fits: all hits" 0.0 (Cache.miss_rate c)

let test_cache_working_set_ordering () =
  (* A working set larger than the cache misses more than a smaller one. *)
  let rng = Stats.Rng.create 1 in
  let run ws_bytes =
    let c = Cache.create ~size_bytes:32768 ~ways:4 ~line_bytes:64 in
    for _ = 1 to 20_000 do
      ignore (Cache.access c (Stats.Rng.int rng (ws_bytes / 64) * 64))
    done;
    Cache.miss_rate c
  in
  let small = run 16384 and big = run (1 lsl 20) in
  Alcotest.(check bool)
    (Printf.sprintf "small ws %.3f < big ws %.3f" small big)
    true (small < big)

let test_cache_probe_no_state_change () =
  let c = Cache.create ~size_bytes:4096 ~ways:4 ~line_bytes:64 in
  Alcotest.(check bool) "probe miss" false (Cache.probe c 0x1000);
  Alcotest.(check bool) "probe did not fill" false (Cache.probe c 0x1000);
  Alcotest.(check int) "probe not counted" 0 (Cache.accesses c)

let test_cache_clear () =
  let c = Cache.create ~size_bytes:4096 ~ways:4 ~line_bytes:64 in
  ignore (Cache.access c 0x40);
  Cache.clear c;
  Alcotest.(check bool) "cleared" false (Cache.probe c 0x40);
  Alcotest.(check int) "stats reset" 0 (Cache.accesses c)

let test_cache_rejects_geometry () =
  Alcotest.check_raises "bad line"
    (Invalid_argument "Cache.create: line size must be a power of two") (fun () ->
      ignore (Cache.create ~size_bytes:4096 ~ways:4 ~line_bytes:60))

(* ------------------------------- Branch ---------------------------- *)

let test_branch_learns_bias () =
  let b = Branch.create ~table_bits:10 () in
  for _ = 1 to 200 do
    ignore (Branch.update b ~pc:0x400 ~taken:true)
  done;
  Branch.reset_stats b;
  for _ = 1 to 100 do
    ignore (Branch.update b ~pc:0x400 ~taken:true)
  done;
  Alcotest.(check int) "biased branch fully predicted" 0 (Branch.mispredicts b)

let test_branch_random_mispredicts () =
  let rng = Stats.Rng.create 2 in
  let b = Branch.create ~table_bits:10 () in
  for _ = 1 to 4000 do
    ignore (Branch.update b ~pc:0x400 ~taken:(Stats.Rng.bool rng))
  done;
  let rate = Branch.mispredict_rate b in
  Alcotest.(check bool) (Printf.sprintf "random ~50%% (%.2f)" rate) true (rate > 0.35)

let test_branch_alternating_learned () =
  (* gshare with history should learn a strict alternation. *)
  let b = Branch.create ~table_bits:12 () in
  let taken = ref false in
  for _ = 1 to 2000 do
    taken := not !taken;
    ignore (Branch.update b ~pc:0x80 ~taken:!taken)
  done;
  Branch.reset_stats b;
  for _ = 1 to 500 do
    taken := not !taken;
    ignore (Branch.update b ~pc:0x80 ~taken:!taken)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "alternation learned (%.3f)" (Branch.mispredict_rate b))
    true
    (Branch.mispredict_rate b < 0.05)

let test_branch_counts () =
  let b = Branch.create ~table_bits:8 () in
  for i = 1 to 10 do
    ignore (Branch.update b ~pc:i ~taken:true)
  done;
  Alcotest.(check int) "10 branches" 10 (Branch.branches b)

(* -------------------------------- Tlb ------------------------------ *)

let test_tlb_hit_miss () =
  let t = Tlb.create ~entries:4 ~page_bytes:4096 in
  Alcotest.(check bool) "cold miss" false (Tlb.access t 0x1000);
  Alcotest.(check bool) "same page hits" true (Tlb.access t 0x1FFF);
  Alcotest.(check int) "one miss" 1 (Tlb.misses t)

let test_tlb_lru () =
  let t = Tlb.create ~entries:2 ~page_bytes:4096 in
  ignore (Tlb.access t 0x0000);
  ignore (Tlb.access t 0x1000);
  ignore (Tlb.access t 0x0000);
  ignore (Tlb.access t 0x2000);
  (* evicts page 1 *)
  Alcotest.(check bool) "page 0 resident" true (Tlb.access t 0x0000);
  Alcotest.(check bool) "page 1 evicted" false (Tlb.access t 0x1000)

(* -------------------------- LRU equivalence ------------------------ *)

(* Naive timestamp LRU over groups of [ways] slots, the representation the
   cache and the TLB replaced: each slot holds a tag and the tick of its
   last access, never-used slots hold tag -1 and stamp 0, and a miss
   evicts the lowest-indexed slot with the smallest stamp. *)
module Stamp_lru = struct
  type t = { ways : int; tags : int array; stamps : int array; mutable tick : int }

  let create ~groups ~ways =
    let n = groups * ways in
    { ways; tags = Array.make n (-1); stamps = Array.make n 0; tick = 0 }

  let find t ~group tag =
    let base = group * t.ways in
    let rec go w =
      if w = t.ways then -1 else if t.tags.(base + w) = tag then base + w else go (w + 1)
    in
    go 0

  let access t ~group tag =
    t.tick <- t.tick + 1;
    let i = find t ~group tag in
    if i >= 0 then begin
      t.stamps.(i) <- t.tick;
      true
    end
    else begin
      let base = group * t.ways in
      let victim = ref base in
      for w = base + 1 to base + t.ways - 1 do
        if t.stamps.(w) < t.stamps.(!victim) then victim := w
      done;
      t.tags.(!victim) <- tag;
      t.stamps.(!victim) <- t.tick;
      false
    end

  let clear t =
    Array.fill t.tags 0 (Array.length t.tags) (-1);
    Array.fill t.stamps 0 (Array.length t.stamps) 0;
    t.tick <- 0
end

(* Random geometries, including one set (fully associative) and one way,
   and streams over about three times the cache's lines, so lines are
   reused and evicted; [None] is a [Cache.clear]. *)
let gen_cache_case =
  QCheck2.Gen.(
    let* sets = oneofl [ 1; 2; 4; 16 ] in
    let* ways = oneofl [ 1; 2; 3; 4; 8; 12 ] in
    let* line_bytes = oneofl [ 16; 64; 128 ] in
    let addr =
      map2
        (fun l off -> (l * line_bytes) + off)
        (int_bound (3 * sets * ways))
        (int_bound (line_bytes - 1))
    in
    let op = frequency [ (1, return None); (80, map Option.some addr) ] in
    let* ops = list_size (int_range 1 500) op in
    return (sets, ways, line_bytes, ops))

let prop_cache_matches_stamp_lru =
  QCheck2.Test.make ~name:"cache agrees with timestamp LRU" ~count:300 gen_cache_case
    (fun (sets, ways, line_bytes, ops) ->
      let c = Cache.create ~size_bytes:(sets * ways * line_bytes) ~ways ~line_bytes in
      let m = Stamp_lru.create ~groups:sets ~ways in
      let misses = ref 0 and accesses = ref 0 in
      let same_op = function
        | None ->
            Cache.clear c;
            Stamp_lru.clear m;
            misses := 0;
            accesses := 0;
            Cache.accesses c = 0
        | Some addr ->
            let line = addr / line_bytes in
            let expected = Stamp_lru.access m ~group:(line mod sets) line in
            incr accesses;
            if not expected then incr misses;
            Cache.access c addr = expected
      in
      let resident addr =
        let line = addr / line_bytes in
        Cache.probe c addr = (Stamp_lru.find m ~group:(line mod sets) line >= 0)
      in
      List.for_all same_op ops
      && Cache.accesses c = !accesses
      && Cache.miss_rate c
         = (if !accesses = 0 then 0.0 else float_of_int !misses /. float_of_int !accesses)
      && List.for_all (fun l -> resident (l * line_bytes)) (List.init (3 * sets * ways) Fun.id))

let gen_tlb_case =
  QCheck2.Gen.(
    let* entries = oneofl [ 1; 2; 3; 4; 7; 8; 16; 64 ] in
    let* page_bytes = oneofl [ 256; 4096 ] in
    let addr =
      map2
        (fun p off -> (p * page_bytes) + off)
        (int_bound (2 * entries))
        (int_bound (page_bytes - 1))
    in
    let* addrs = list_size (int_range 1 800) addr in
    return (entries, page_bytes, addrs))

(* The TLB and the buffer cache are both Stats.Lru over page numbers. *)
let prop_tlb_matches_stamp_lru =
  QCheck2.Test.make ~name:"tlb agrees with timestamp LRU" ~count:300 gen_tlb_case
    (fun (entries, page_bytes, addrs) ->
      let t = Tlb.create ~entries ~page_bytes in
      let b = Dbengine.Bufcache.create ~pages:entries ~page_bytes in
      let m = Stamp_lru.create ~groups:1 ~ways:entries in
      let misses = ref 0 in
      List.for_all
        (fun addr ->
          let expected = Stamp_lru.access m ~group:0 (addr / page_bytes) in
          if not expected then incr misses;
          Tlb.access t addr = expected && Dbengine.Bufcache.touch b addr = expected)
        addrs
      && Tlb.misses t = !misses
      && Dbengine.Bufcache.hit_ratio b
         = float_of_int (List.length addrs - !misses) /. float_of_int (List.length addrs))

let test_lru_no_allocation () =
  let c = Cache.create ~size_bytes:32768 ~ways:4 ~line_bytes:64 in
  let t = Tlb.create ~entries:64 ~page_bytes:4096 in
  let b = Dbengine.Bufcache.create ~pages:64 ~page_bytes:4096 in
  let rng = Stats.Rng.create 7 in
  (* 1 MB of addresses: both hits and evicting misses in all three. *)
  let addrs = Array.init 100_000 (fun _ -> Stats.Rng.int rng (1 lsl 20)) in
  let before = Gc.minor_words () in
  for i = 0 to Array.length addrs - 1 do
    ignore (Cache.access c addrs.(i) : bool);
    ignore (Tlb.access t addrs.(i) : bool);
    ignore (Dbengine.Bufcache.touch b addrs.(i) : bool)
  done;
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "minor words" 0.0 (after -. before);
  Alcotest.(check bool) "misses and hits both seen" true
    (Tlb.misses t > 1000 && Tlb.misses t < 99_000)

(* ------------------------------ Config ----------------------------- *)

let test_config_presets_valid () =
  List.iter Config.validate Config.all;
  Alcotest.(check int) "3 presets" 3 (List.length Config.all)

let test_config_by_name () =
  Alcotest.(check string) "lookup" "pentium4" (Config.by_name "pentium4").Config.name;
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Config.by_name "alpha"))

let test_config_p4_has_no_l3 () =
  Alcotest.(check bool) "p4 no L3" true (Config.pentium4.Config.l3 = None);
  Alcotest.(check bool) "itanium2 has L3" true (Config.itanium2.Config.l3 <> None)

(* ----------------------------- Hierarchy --------------------------- *)

let test_hierarchy_levels () =
  let h = Hierarchy.create Config.itanium2 in
  Alcotest.(check bool) "cold goes to Mem" true (Hierarchy.access_data h 0x10000 = Hierarchy.Mem);
  Alcotest.(check bool) "then L1" true (Hierarchy.access_data h 0x10000 = Hierarchy.L1)

let test_hierarchy_l2_after_l1_eviction () =
  let h = Hierarchy.create Config.itanium2 in
  ignore (Hierarchy.access_data h 0);
  (* Thrash L1D (32 KB) with 64 KB of lines; line 0 should fall to L2. *)
  for i = 1 to 1024 do
    ignore (Hierarchy.access_data h (i * 64))
  done;
  let lvl = Hierarchy.access_data h 0 in
  Alcotest.(check bool) "L1 evicted but L2/L3 resident" true
    (lvl = Hierarchy.L2 || lvl = Hierarchy.L3)

let test_hierarchy_mem_counter () =
  let h = Hierarchy.create Config.itanium2 in
  for i = 0 to 9 do
    ignore (Hierarchy.access_data h (i * 1024 * 1024))
  done;
  Alcotest.(check int) "10 memory accesses" 10 (Hierarchy.mem_data_accesses h)

let test_hierarchy_p4_misses_cost_memory () =
  let h = Hierarchy.create Config.pentium4 in
  ignore h;
  Alcotest.(check (float 1e-9)) "mem latency" Config.pentium4.Config.lat_mem
    (Hierarchy.data_latency Config.pentium4 Hierarchy.Mem);
  Alcotest.(check (float 1e-9)) "L1 free" 0.0 (Hierarchy.data_latency Config.pentium4 Hierarchy.L1)

(* ----------------------------- Breakdown --------------------------- *)

let test_breakdown_arith () =
  let a = { Breakdown.work = 1.0; fe = 2.0; exe = 3.0; other = 4.0 } in
  let b = Breakdown.scale a 2.0 in
  Alcotest.(check (float 1e-9)) "scale" 6.0 b.Breakdown.exe;
  let c = Breakdown.add a b in
  Alcotest.(check (float 1e-9)) "add" 9.0 c.Breakdown.exe;
  Alcotest.(check (float 1e-9)) "total" 10.0 (Breakdown.total a);
  Alcotest.(check (float 1e-9)) "exe fraction" 0.3 (Breakdown.exe_fraction a);
  let d = Breakdown.sub c a in
  Alcotest.(check (float 1e-9)) "sub" 6.0 d.Breakdown.exe

let test_breakdown_per_instr () =
  let a = { Breakdown.work = 10.0; fe = 0.0; exe = 20.0; other = 0.0 } in
  let p = Breakdown.per_instr a ~instrs:10 in
  Alcotest.(check (float 1e-9)) "work cpi" 1.0 p.Breakdown.work;
  Alcotest.(check (float 1e-9)) "exe cpi" 2.0 p.Breakdown.exe

(* -------------------------------- Cpu ------------------------------ *)

let quantum_no_misses () =
  (* Tiny loop: one hot line, one biased branch, refs that always hit after
     warmup. *)
  Quantum.make ~instrs:1000
    ~inst_lines:[| 0x4000 |]
    ~ref_addrs:(Array.make 16 0x100)
    ~branch_pcs:(Array.make 8 0x40)
    ~branch_taken:(Array.make 8 true)
    ()

let test_cpu_base_cpi_floor () =
  let cpu = Cpu.create Config.itanium2 in
  (* Warm up. *)
  for _ = 1 to 20 do
    ignore (Cpu.run cpu (quantum_no_misses ()))
  done;
  let r = Cpu.run cpu (quantum_no_misses ()) in
  let cpi = Cpu.cpi r ~instrs:1000 in
  let floor = Config.itanium2.Config.base_cpi +. Config.itanium2.Config.other_base_cpi in
  Alcotest.(check bool)
    (Printf.sprintf "warm loop near base CPI (%.3f vs floor %.3f)" cpi floor)
    true
    (cpi < floor +. 0.05)

let test_cpu_misses_raise_cpi () =
  let cpu = Cpu.create Config.itanium2 in
  let rng = Stats.Rng.create 3 in
  let q () =
    Quantum.make ~instrs:1000
      ~ref_addrs:(Array.init 64 (fun _ -> Stats.Rng.int rng (64 lsl 20)))
      ()
  in
  for _ = 1 to 5 do
    ignore (Cpu.run cpu (q ()))
  done;
  let r = Cpu.run cpu (q ()) in
  Alcotest.(check bool) "memory-bound CPI >> base" true (Cpu.cpi r ~instrs:1000 > 2.0);
  Alcotest.(check bool) "exe dominates" true (Breakdown.exe_fraction r.Cpu.breakdown > 0.5)

let test_cpu_breakdown_total_equals_cycles () =
  let cpu = Cpu.create Config.xeon in
  let r = Cpu.run cpu (quantum_no_misses ()) in
  Alcotest.(check (float 1e-6)) "components sum to cycles" r.Cpu.cycles
    (Breakdown.total r.Cpu.breakdown)

let test_cpu_mispredicts_feed_fe () =
  let cpu = Cpu.create Config.pentium4 in
  let rng = Stats.Rng.create 5 in
  let q () =
    Quantum.make ~instrs:1000
      ~branch_pcs:(Array.make 64 0x99)
      ~branch_taken:(Array.init 64 (fun _ -> Stats.Rng.bool rng))
      ()
  in
  for _ = 1 to 5 do
    ignore (Cpu.run cpu (q ()))
  done;
  let r = Cpu.run cpu (q ()) in
  Alcotest.(check bool) "random branches cost FE" true (r.Cpu.breakdown.Breakdown.fe > 10.0);
  Alcotest.(check bool) "mispredicts counted" true (r.Cpu.branch_mispredicts > 5.0)

let test_cpu_ref_weight_scales_exe () =
  let run weight =
    let cpu = Cpu.create Config.itanium2 in
    let q =
      Quantum.make ~instrs:1000
        ~ref_addrs:(Array.init 32 (fun i -> 0x100000 * (i + 1)))
        ~ref_weight:weight ()
    in
    (Cpu.run cpu q).Cpu.breakdown.Breakdown.exe
  in
  let e1 = run 1.0 and e4 = run 4.0 in
  Alcotest.(check (float 1e-6)) "exe scales with ref weight" (4.0 *. e1) e4

let test_cpu_extra_other_cycles () =
  let cpu = Cpu.create Config.itanium2 in
  let q = Quantum.make ~instrs:100 ~extra_other_cycles:123.0 () in
  let r = Cpu.run cpu q in
  Alcotest.(check bool) "other includes extra" true (r.Cpu.breakdown.Breakdown.other >= 123.0)

let test_cpu_pollute_evicts () =
  let cpu = Cpu.create Config.itanium2 in
  (* Fill some lines, pollute fully, expect at least one to be gone. *)
  let addrs = Array.init 256 (fun i -> i * 64) in
  ignore (Cpu.run cpu (Quantum.make ~instrs:100 ~ref_addrs:addrs ()));
  Cpu.pollute cpu ~fraction:1.0;
  let r = Cpu.run cpu (Quantum.make ~instrs:100 ~ref_addrs:addrs ()) in
  Alcotest.(check bool) "pollution causes repeat misses" true (r.Cpu.dcache_misses > 0.0)

let test_quantum_validation () =
  Alcotest.check_raises "bad instrs" (Invalid_argument "Quantum.make: instrs must be positive")
    (fun () -> ignore (Quantum.make ~instrs:0 ()));
  Alcotest.check_raises "bad arrays"
    (Invalid_argument "Quantum.make: branch_taken length mismatch") (fun () ->
      ignore (Quantum.make ~instrs:1 ~branch_pcs:[| 1 |] ()))

let () =
  Alcotest.run "march"
    [
      ( "cache",
        [
          Alcotest.test_case "hit after fill" `Quick test_cache_hit_after_fill;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "miss rate" `Quick test_cache_miss_rate;
          Alcotest.test_case "working-set ordering" `Quick test_cache_working_set_ordering;
          Alcotest.test_case "probe is read-only" `Quick test_cache_probe_no_state_change;
          Alcotest.test_case "clear" `Quick test_cache_clear;
          Alcotest.test_case "rejects bad geometry" `Quick test_cache_rejects_geometry;
        ] );
      ( "branch",
        [
          Alcotest.test_case "learns bias" `Quick test_branch_learns_bias;
          Alcotest.test_case "random ~50%" `Quick test_branch_random_mispredicts;
          Alcotest.test_case "learns alternation" `Quick test_branch_alternating_learned;
          Alcotest.test_case "counts" `Quick test_branch_counts;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "hit/miss" `Quick test_tlb_hit_miss;
          Alcotest.test_case "LRU" `Quick test_tlb_lru;
        ] );
      ( "lru equivalence",
        Alcotest.test_case "no allocation" `Quick test_lru_no_allocation
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_cache_matches_stamp_lru; prop_tlb_matches_stamp_lru ] );
      ( "config",
        [
          Alcotest.test_case "presets valid" `Quick test_config_presets_valid;
          Alcotest.test_case "by_name" `Quick test_config_by_name;
          Alcotest.test_case "p4 lacks L3" `Quick test_config_p4_has_no_l3;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "levels" `Quick test_hierarchy_levels;
          Alcotest.test_case "L2 after L1 eviction" `Quick test_hierarchy_l2_after_l1_eviction;
          Alcotest.test_case "memory counter" `Quick test_hierarchy_mem_counter;
          Alcotest.test_case "latencies" `Quick test_hierarchy_p4_misses_cost_memory;
        ] );
      ( "breakdown",
        [
          Alcotest.test_case "arithmetic" `Quick test_breakdown_arith;
          Alcotest.test_case "per instr" `Quick test_breakdown_per_instr;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "base CPI floor" `Quick test_cpu_base_cpi_floor;
          Alcotest.test_case "misses raise CPI" `Quick test_cpu_misses_raise_cpi;
          Alcotest.test_case "breakdown sums to cycles" `Quick test_cpu_breakdown_total_equals_cycles;
          Alcotest.test_case "mispredicts feed FE" `Quick test_cpu_mispredicts_feed_fe;
          Alcotest.test_case "ref weight scales EXE" `Quick test_cpu_ref_weight_scales_exe;
          Alcotest.test_case "extra other cycles" `Quick test_cpu_extra_other_cycles;
          Alcotest.test_case "pollute evicts" `Quick test_cpu_pollute_evicts;
          Alcotest.test_case "quantum validation" `Quick test_quantum_validation;
        ] );
    ]
