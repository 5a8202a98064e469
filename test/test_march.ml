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

(* [count_false n f] calls [f] [n] times and counts the [false]s: the
   misses of an [access] or the correct predictions of an [update]. *)
let count_false n f =
  let k = ref 0 in
  for i = 0 to n - 1 do
    if not (f i) then incr k
  done;
  !k

let test_cache_miss_rate () =
  let c = Cache.create ~size_bytes:4096 ~ways:4 ~line_bytes:64 in
  let misses () = count_false 64 (fun i -> Cache.access c (i * 64)) in
  Alcotest.(check int) "all cold misses" 64 (misses ());
  Alcotest.(check int) "fits: all hits" 0 (misses ())

let test_cache_working_set_ordering () =
  (* A working set larger than the cache misses more than a smaller one. *)
  let rng = Stats.Rng.create 1 in
  let run ws_bytes =
    let c = Cache.create ~size_bytes:32768 ~ways:4 ~line_bytes:64 in
    count_false 20_000 (fun _ -> Cache.access c (Stats.Rng.int rng (ws_bytes / 64) * 64))
  in
  let small = run 16384 and big = run (1 lsl 20) in
  Alcotest.(check bool)
    (Printf.sprintf "small ws %d < big ws %d misses" small big)
    true (small < big)

let test_cache_probe_no_state_change () =
  let c = Cache.create ~size_bytes:4096 ~ways:4 ~line_bytes:64 in
  Alcotest.(check bool) "probe miss" false (Cache.probe c 0x1000);
  Alcotest.(check bool) "probe did not fill" false (Cache.probe c 0x1000);
  Alcotest.(check bool) "access still misses" false (Cache.access c 0x1000)

let test_cache_rejects_geometry () =
  Alcotest.check_raises "bad line"
    (Invalid_argument "Cache.create: line size must be a power of two") (fun () ->
      ignore (Cache.create ~size_bytes:4096 ~ways:4 ~line_bytes:60))

(* ------------------------------- Branch ---------------------------- *)

(* Mispredicts among [n] updates: [update] answers [true] for each. *)
let mispredicts n f = n - count_false n f

let test_branch_learns_bias () =
  let b = Branch.create ~table_bits:10 () in
  let taken _ = Branch.update b ~pc:0x400 ~taken:true in
  ignore (mispredicts 200 taken : int);
  Alcotest.(check int) "biased branch fully predicted" 0 (mispredicts 100 taken)

let test_branch_random_mispredicts () =
  let rng = Stats.Rng.create 2 in
  let b = Branch.create ~table_bits:10 () in
  let wrong = mispredicts 4000 (fun _ -> Branch.update b ~pc:0x400 ~taken:(Stats.Rng.bool rng)) in
  let rate = float_of_int wrong /. 4000.0 in
  Alcotest.(check bool) (Printf.sprintf "random ~50%% (%.2f)" rate) true (rate > 0.35)

let test_branch_alternating_learned () =
  (* gshare with history should learn a strict alternation. *)
  let b = Branch.create ~table_bits:12 () in
  let taken = ref false in
  let alternate _ =
    taken := not !taken;
    Branch.update b ~pc:0x80 ~taken:!taken
  in
  ignore (mispredicts 2000 alternate : int);
  let wrong = mispredicts 500 alternate in
  Alcotest.(check bool) (Printf.sprintf "alternation learned (%d/500)" wrong) true (wrong < 25)

(* -------------------------------- Tlb ------------------------------ *)

(* [tlb_hit t addr] looks one address up through the batched call. *)
let tlb_hit t addr = Tlb.misses t [| addr |] 1 = 0

let test_tlb_hit_miss () =
  let t = Tlb.create ~entries:4 ~page_bytes:4096 in
  Alcotest.(check bool) "cold miss" false (tlb_hit t 0x1000);
  Alcotest.(check bool) "same page hits" true (tlb_hit t 0x1FFF)

let test_tlb_lru () =
  let t = Tlb.create ~entries:2 ~page_bytes:4096 in
  Alcotest.(check int) "three cold pages, one hit" 3
    (Tlb.misses t [| 0x0000; 0x1000; 0x0000; 0x2000 |] 4);
  (* page 2 evicted page 1 *)
  Alcotest.(check bool) "page 0 resident" true (tlb_hit t 0x0000);
  Alcotest.(check bool) "page 1 evicted" false (tlb_hit t 0x1000)

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
end

(* Random geometries, including one set (fully associative) and one way,
   and streams over about three times the cache's lines, so lines are
   reused and evicted. *)
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
    let* addrs = list_size (int_range 1 500) addr in
    return (sets, ways, line_bytes, addrs))

let prop_cache_matches_stamp_lru =
  QCheck2.Test.make ~name:"cache agrees with timestamp LRU" ~count:300 gen_cache_case
    (fun (sets, ways, line_bytes, addrs) ->
      let c = Cache.create ~size_bytes:(sets * ways * line_bytes) ~ways ~line_bytes in
      let m = Stamp_lru.create ~groups:sets ~ways in
      let same addr =
        let line = addr / line_bytes in
        Cache.access c addr = Stamp_lru.access m ~group:(line mod sets) line
      in
      let resident addr =
        let line = addr / line_bytes in
        Cache.probe c addr = (Stamp_lru.find m ~group:(line mod sets) line >= 0)
      in
      List.for_all same addrs
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

(* The TLB and the buffer cache are both Stats.Lru over page numbers;
   the TLB is driven through its batched call, one address at a time. *)
let prop_tlb_matches_stamp_lru =
  QCheck2.Test.make ~name:"tlb agrees with timestamp LRU" ~count:300 gen_tlb_case
    (fun (entries, page_bytes, addrs) ->
      let t = Tlb.create ~entries ~page_bytes in
      let b = Dbengine.Bufcache.create ~pages:entries ~page_bytes in
      let m = Stamp_lru.create ~groups:1 ~ways:entries in
      List.for_all
        (fun addr ->
          let expected = Stamp_lru.access m ~group:0 (addr / page_bytes) in
          tlb_hit t addr = expected && Dbengine.Bufcache.touch b addr = expected)
        addrs)

let test_lru_no_allocation () =
  let c = Cache.create ~size_bytes:32768 ~ways:4 ~line_bytes:64 in
  let t = Tlb.create ~entries:64 ~page_bytes:4096 in
  let b = Dbengine.Bufcache.create ~pages:64 ~page_bytes:4096 in
  let path =
    [|
      Cache.create ~size_bytes:4096 ~ways:2 ~line_bytes:64;
      Cache.create ~size_bytes:65536 ~ways:8 ~line_bytes:64;
    |]
  in
  let rng = Stats.Rng.create 7 in
  (* 1 MB of addresses: both hits and evicting misses in all of them. *)
  let addrs = Array.init 100_000 (fun _ -> Stats.Rng.int rng (1 lsl 20)) in
  (* The batched walk runs over a 48-line fetch buffer refilled every
     round and one level buffer, reused as [Cpu.run] and the driver reuse
     theirs, and stops after every memory-level miss as it does under a
     prefetcher. *)
  let lines = Array.make 48 0 and levels = Bytes.create 48 in
  let before = Gc.minor_words () in
  for i = 0 to Array.length addrs - 1 do
    ignore (Cache.access c addrs.(i) : bool);
    ignore (Dbengine.Bufcache.touch b addrs.(i) : bool)
  done;
  let tlb_misses = Tlb.misses t addrs (Array.length addrs) in
  let walks = ref 0 in
  for r = 0 to (Array.length addrs / 48) - 1 do
    Array.blit addrs (r * 48) lines 0 48;
    let i = ref 0 in
    while !i < 48 do
      i := Cache.walk_batch path lines ~from:!i ~upto:48 levels ~stop_at_memory:true;
      incr walks
    done
  done;
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "minor words" 0.0 (after -. before);
  Alcotest.(check bool) "misses and hits both seen" true
    (tlb_misses > 1000 && tlb_misses < 99_000);
  Alcotest.(check bool) "the walk stopped at memory misses" true
    (!walks > 2 * (Array.length addrs / 48))

(* 1-3 level paths of random geometries, each level with its own line
   size, over addresses spanning about three times the path's capacity. *)
let gen_path_case =
  QCheck2.Gen.(
    let level =
      let* sets = oneofl [ 1; 2; 4; 16 ] in
      let* ways = oneofl [ 1; 2; 3; 4; 8 ] in
      let* line_bytes = oneofl [ 16; 64; 128 ] in
      return (sets, ways, line_bytes)
    in
    let* geoms = list_size (int_range 1 3) level in
    let span = 3 * List.fold_left (fun acc (s, w, l) -> acc + (s * w * l)) 0 geoms in
    let* addrs = list_size (int_range 1 400) (int_bound span) in
    let* prefetch = bool in
    return (geoms, span, addrs, prefetch))

(* The batched walk against per-reference [Cache.walk] on a twin path.
   With [prefetch], a stand-in prefetcher installs the next two 64-byte
   lines into the outer levels (the only level of a 1-level path) after
   every reference served by memory, before the next reference: the
   batched side must stop there for it. *)
let prop_walk_batch_matches_walk =
  QCheck2.Test.make ~name:"batched walk agrees with per-reference walk" ~count:300
    gen_path_case (fun (geoms, span, addrs, prefetch) ->
      let make () =
        Array.of_list
          (List.map
             (fun (sets, ways, line_bytes) ->
               Cache.create ~size_bytes:(sets * ways * line_bytes) ~ways ~line_bytes)
             geoms)
      in
      let a = make () and b = make () in
      let mem = Array.length a in
      let install path addr =
        for k = Int.min 1 (mem - 1) to mem - 1 do
          ignore (Cache.access path.(k) (addr + 64) : bool);
          ignore (Cache.access path.(k) (addr + 128) : bool)
        done
      in
      let addrs = Array.of_list addrs in
      let n = Array.length addrs in
      let expected =
        Array.map
          (fun addr ->
            let lvl = Cache.walk a addr in
            if prefetch && lvl = mem then install a addr;
            lvl)
          addrs
      in
      (* One spare byte past [n], which the walk must not write. *)
      let levels = Bytes.make (n + 1) '\255' in
      let ok = ref true and i = ref 0 in
      while !i < n do
        let j = Cache.walk_batch b addrs ~from:!i ~upto:n levels ~stop_at_memory:prefetch in
        if j <= !i || j > n then begin
          ok := false;
          i := n
        end
        else begin
          (* Only the last reference walked may have gone to memory, and
             a stop short of [n] must be one that did. *)
          for k = !i to j - 2 do
            if prefetch && Bytes.get_uint8 levels k = mem then ok := false
          done;
          let stopped = Bytes.get_uint8 levels (j - 1) = mem in
          if j < n && not (prefetch && stopped) then ok := false;
          if prefetch && stopped then install b addrs.(j - 1);
          i := j
        end
      done;
      let same_levels =
        Array.for_all Fun.id (Array.mapi (fun k l -> Bytes.get_uint8 levels k = l) expected)
      in
      let same_probes =
        List.for_all
          (fun k ->
            List.for_all
              (fun x -> Cache.probe a.(k) (x * 16) = Cache.probe b.(k) (x * 16))
              (List.init ((span + 256) / 16) Fun.id))
          (List.init mem Fun.id)
      in
      !ok && same_levels && Bytes.get levels n = '\255' && same_probes)

(* The TLB's shape (1-128 entries of 256 B or 4 KiB pages) and the
   buffer cache's (4,096 or 6,000 pages of 8 KiB), over about twice the
   capacity's pages, cut into random batches. *)
let gen_lru_batch_case =
  QCheck2.Gen.(
    let* capacity, shift =
      oneof
        [
          pair (oneofl [ 1; 2; 3; 8; 64; 128 ]) (oneofl [ 8; 12 ]);
          pair (oneofl [ 4096; 6000 ]) (return 13);
        ]
    in
    let* len = int_range 1 (4 * capacity + 50) in
    let* addrs = array_repeat len (int_bound ((2 * capacity) lsl shift)) in
    let* batch = int_range 1 64 in
    return (capacity, shift, addrs, batch))

let prop_lru_misses_match_access =
  QCheck2.Test.make ~name:"batched Lru misses agree with per-key access" ~count:100
    gen_lru_batch_case (fun (capacity, shift, addrs, batch) ->
      let t = Stats.Lru.create ~capacity and twin = Stats.Lru.create ~capacity in
      let n = Array.length addrs in
      let batched = ref 0 and pos = ref 0 in
      while !pos < n do
        let len = Int.min batch (n - !pos) in
        batched := !batched + Stats.Lru.misses t ~shift (Array.sub addrs !pos len) len;
        pos := !pos + len
      done;
      let per_key =
        Array.fold_left
          (fun m a -> if Stats.Lru.access twin (a asr shift) then m else m + 1)
          0 addrs
      in
      (* Then both hold the same keys in the same recency order: a scan
         over every key gets the same answer from each, key by key. *)
      let same_after =
        List.for_all
          (fun key ->
            Stats.Lru.misses t ~shift [| key lsl shift |] 1
            = Bool.to_int (not (Stats.Lru.access twin key)))
          (List.init (2 * capacity) Fun.id)
      in
      !batched = per_key && same_after)

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
  let mem = ref 0 in
  for i = 0 to 9 do
    if Hierarchy.access_data h (i * 1024 * 1024) = Hierarchy.Mem then incr mem
  done;
  Alcotest.(check int) "10 memory accesses" 10 !mem

let test_hierarchy_p4_misses_cost_memory () =
  (* No L3 on the Pentium 4: a walk that misses both caches is served by
     memory at index 2. *)
  let lat = Hierarchy.latencies (Hierarchy.create Config.pentium4) in
  Alcotest.(check int) "L1, L2, memory" 3 (Array.length lat);
  Alcotest.(check (float 1e-9)) "mem latency" Config.pentium4.Config.lat_mem lat.(2);
  Alcotest.(check (float 1e-9)) "L2 latency" Config.pentium4.Config.lat_l2 lat.(1);
  Alcotest.(check (float 1e-9)) "L1 free" 0.0 lat.(0)

(* ----------------------------- Breakdown --------------------------- *)

let test_breakdown_arith () =
  let a = { Breakdown.work = 1.0; fe = 2.0; exe = 3.0; other = 4.0 } in
  let b = Breakdown.scale a 2.0 in
  Alcotest.(check (float 1e-9)) "scale" 6.0 b.Breakdown.exe;
  let c = Breakdown.add a b in
  Alcotest.(check (float 1e-9)) "add" 9.0 c.Breakdown.exe;
  Alcotest.(check (float 1e-9)) "total" 10.0 (Breakdown.total a);
  Alcotest.(check (float 1e-9)) "exe fraction" 0.3 (Breakdown.exe_fraction a)

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
  let cpi = r.Cpu.cycles /. 1000.0 in
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
  Alcotest.(check bool) "memory-bound CPI >> base" true (r.Cpu.cycles /. 1000.0 > 2.0);
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

(* The second of two consecutive-line memory misses confirms a stream,
   and the prefetcher installs the next lines in the L2 before the next
   reference is walked, even when that reference is in the next
   quantum. *)
let test_cpu_prefetch_after_last_reference () =
  let cfg = Config.with_prefetch Config.pentium4 in
  let line = cfg.Config.l2.Config.line_bytes in
  let cpu = Cpu.create cfg in
  let base = 1 lsl 24 in
  let first = Cpu.run cpu (Quantum.make ~instrs:100 ~ref_addrs:[| base; base + line |] ()) in
  Alcotest.(check (float 0.0)) "two memory misses" 2.0 first.Cpu.l3_data_misses;
  let next = Cpu.run cpu (Quantum.make ~instrs:100 ~ref_addrs:[| base + (2 * line) |] ()) in
  Alcotest.(check (float 0.0)) "an L1 miss" 1.0 next.Cpu.dcache_misses;
  Alcotest.(check (float 0.0)) "served by the L2" 0.0 next.Cpu.l3_data_misses

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
          Alcotest.test_case "rejects bad geometry" `Quick test_cache_rejects_geometry;
        ] );
      ( "branch",
        [
          Alcotest.test_case "learns bias" `Quick test_branch_learns_bias;
          Alcotest.test_case "random ~50%" `Quick test_branch_random_mispredicts;
          Alcotest.test_case "learns alternation" `Quick test_branch_alternating_learned;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "hit/miss" `Quick test_tlb_hit_miss;
          Alcotest.test_case "LRU" `Quick test_tlb_lru;
        ] );
      ( "lru equivalence",
        Alcotest.test_case "no allocation" `Quick test_lru_no_allocation
        :: List.map QCheck_alcotest.to_alcotest
             [
               prop_cache_matches_stamp_lru;
               prop_tlb_matches_stamp_lru;
               prop_walk_batch_matches_walk;
               prop_lru_misses_match_access;
             ] );
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
          Alcotest.test_case "prefetch after a quantum's last reference" `Quick
            test_cpu_prefetch_after_last_reference;
        ] );
    ]
