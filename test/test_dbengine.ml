(* Tests for the database-engine substrate. *)

module Btree = Dbengine.Btree
module Heap = Dbengine.Heap
module Sink = Dbengine.Sink
module Ops = Dbengine.Ops
module Query = Dbengine.Query
module Tpch = Dbengine.Tpch
module Addr_space = Dbengine.Addr_space
module Bufcache = Dbengine.Bufcache
module Rng = Stats.Rng

(* ----------------------------- Addr_space -------------------------- *)

let test_addr_space_disjoint () =
  let s = Addr_space.create () in
  let a = Addr_space.alloc s ~bytes:1000 in
  let b = Addr_space.alloc s ~bytes:5000 in
  Alcotest.(check bool) "disjoint with guard" true (b >= a + 1000);
  Alcotest.(check bool) "page aligned" true (b mod 16384 = 0)

(* ------------------------------- Btree ----------------------------- *)

let test_btree_bulk_load_find () =
  let t = Btree.create ~node_bytes:256 ~base_addr:0 () in
  let n = 10_000 in
  Btree.bulk_load t ~keys:(Array.init n (fun i -> i * 2)) ~values:(Array.init n Fun.id);
  Btree.check_invariants t;
  Alcotest.(check int) "key count" n (Btree.n_keys t);
  for i = 0 to 99 do
    Alcotest.(check (option int)) "present" (Some (i * 37 mod n)) (Btree.find t (i * 37 mod n * 2));
    Alcotest.(check (option int)) "absent odd key" None (Btree.find t ((i * 2) + 1))
  done

let test_btree_trace_path () =
  let t = Btree.create ~fanout:8 ~node_bytes:512 ~base_addr:0x1000 () in
  Btree.bulk_load t ~keys:(Array.init 5000 Fun.id) ~values:(Array.init 5000 Fun.id);
  let path = ref [] in
  let v = Btree.lookup t 1234 ~visit:(fun a -> path := a :: !path) in
  Alcotest.(check int) "found" 1234 v;
  Alcotest.(check int) "path length = height" (Btree.height t) (List.length !path);
  List.iter
    (fun addr ->
      Alcotest.(check bool) "addr in index space" true
        (addr >= 0x1000 && addr < 0x1000 + Btree.footprint_bytes t))
    !path;
  (* bulk_load creates the root last, so it has the highest address. *)
  Alcotest.(check int) "root visited first" (0x1000 + Btree.footprint_bytes t - 512)
    (List.hd (List.rev !path));
  Alcotest.(check int) "absent key" (-1) (Btree.lookup t 5000 ~visit:ignore)

let test_btree_height_logarithmic () =
  let t = Btree.create ~fanout:32 ~node_bytes:512 ~base_addr:0 () in
  Btree.bulk_load t ~keys:(Array.init 100_000 Fun.id) ~values:(Array.init 100_000 Fun.id);
  Alcotest.(check bool)
    (Printf.sprintf "height %d in [3,5]" (Btree.height t))
    true
    (Btree.height t >= 3 && Btree.height t <= 5)

let test_btree_bulk_rejects_unsorted () =
  let t = Btree.create ~node_bytes:256 ~base_addr:0 () in
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Btree.bulk_load: keys must be strictly increasing") (fun () ->
      Btree.bulk_load t ~keys:[| 2; 1 |] ~values:[| 0; 0 |])

let test_btree_bulk_rejects_unequal_lengths () =
  let t = Btree.create ~node_bytes:256 ~base_addr:0 () in
  Alcotest.check_raises "one value short"
    (Invalid_argument "Btree.bulk_load: keys and values differ in length") (fun () ->
      Btree.bulk_load t ~keys:[| 1; 2 |] ~values:[| 0 |])

let prop_btree_matches_hashtbl =
  QCheck2.Test.make ~name:"btree agrees with Hashtbl reference" ~count:30
    QCheck2.Gen.(
      pair (int_range 4 12) (list_size (int_range 1 200) (pair (int_range 0 500) small_int)))
    (fun (fanout, pairs) ->
      let h = Hashtbl.create 64 in
      List.iter (fun (k, v) -> Hashtbl.replace h k v) pairs;
      let t = Btree.create ~fanout ~node_bytes:128 ~base_addr:0 () in
      let pairs = Array.of_list (Stats.Det.hashtbl_bindings h) in
      Btree.bulk_load t ~keys:(Array.map fst pairs) ~values:(Array.map snd pairs);
      Btree.check_invariants t;
      Btree.n_keys t = Hashtbl.length h
      && Hashtbl.fold
           (fun k v acc -> acc && Btree.find t k = Some v && Btree.lookup t k ~visit:ignore = v)
           h true
      && Btree.find t 501 = None)

(* The shipped flat-array tree against the record-node oracle it
   replaced: on strictly increasing keys, every lookup returns the same
   value and visits the same addresses in the same order, for keys that
   are present, absent in between, negative and past the end. *)
let prop_btree_matches_oracle =
  QCheck2.Test.make ~name:"btree agrees with the record-node oracle" ~count:100
    QCheck2.Gen.(
      triple (int_range 4 32) (int_range (-2000) 2000)
        (list_size (int_range 0 5_000) (int_range 1 4)))
    (fun (fanout, start, steps) ->
      let keys =
        let next (k, acc) d = (k + d, (k + d) :: acc) in
        Array.of_list (List.rev (snd (List.fold_left next (start, []) steps)))
      in
      (* Some values are -1, which [find] must still tell from a miss. *)
      let pairs = Array.map (fun k -> (k, (k * 31 mod 17) - 1)) keys in
      let t = Btree.create ~fanout ~node_bytes:256 ~base_addr:0x10000 () in
      let o = Oracle.Btree.create ~fanout ~node_bytes:256 ~base_addr:0x10000 () in
      Btree.bulk_load t ~keys:(Array.map fst pairs) ~values:(Array.map snd pairs);
      Oracle.Btree.bulk_load o pairs;
      Btree.check_invariants t;
      Oracle.Btree.check_invariants o;
      let same k =
        let pt = ref [] and po = ref [] in
        let vt = Btree.lookup t k ~visit:(fun a -> pt := a :: !pt) in
        let vo = Oracle.Btree.lookup o k ~visit:(fun a -> po := a :: !po) in
        vt = vo && !pt = !po && Btree.find t k = Oracle.Btree.find o k
      in
      let last = if Array.length keys = 0 then start else keys.(Array.length keys - 1) in
      Btree.height t = Oracle.Btree.height o
      && Btree.n_keys t = Oracle.Btree.n_keys o
      && Btree.footprint_bytes t = Oracle.Btree.footprint_bytes o
      && Array.for_all (fun k -> same k && same (k + 1) && same (k - 1)) keys
      && List.for_all same [ min_int; -1; 0; start - 1; last + 1; max_int ])

(* ------------------------- Buffer-cache LRU ------------------------ *)

let test_cache_lru_exact_capacity () =
  let b = Bufcache.create ~pages:3 ~page_bytes:8192 in
  let touch page = Bufcache.touch b (page * 8192) in
  List.iter (fun p -> ignore (touch p)) [ 1; 2; 3 ];
  Alcotest.(check bool) "1 hits" true (touch 1);
  Alcotest.(check bool) "4 misses" false (touch 4);
  (* evicts 2 (LRU); a capacity rounded up to 4 would have kept it *)
  Alcotest.(check bool) "3 resident" true (touch 3);
  Alcotest.(check bool) "1 resident" true (touch 1);
  Alcotest.(check bool) "2 evicted" false (touch 2)

let test_bufcache () =
  let b = Bufcache.create ~pages:4 ~page_bytes:8192 in
  Alcotest.(check bool) "cold miss" false (Bufcache.touch b 0);
  Alcotest.(check bool) "same page hit" true (Bufcache.touch b 8191);
  Alcotest.(check bool) "other page miss" false (Bufcache.touch b 8192)

(* ------------------------------- Heap ------------------------------ *)

let test_heap_addresses () =
  let s = Addr_space.create () in
  let h = Heap.create s ~name:"t" ~rows:100 ~row_bytes:64 in
  Alcotest.(check int) "row stride" 64 (Heap.addr_of_row h 1 - Heap.addr_of_row h 0);
  Alcotest.check_raises "oob" (Invalid_argument "Heap.addr_of_row: row out of range")
    (fun () -> ignore (Heap.addr_of_row h 100))

(* ------------------------------- Sink ------------------------------ *)

let test_sink_accumulate_drain () =
  let s = Sink.create () in
  Sink.instrs s ~region:7 100;
  Sink.instrs s ~region:7 50;
  Sink.instrs s ~region:8 25;
  Sink.data_ref s 0x40;
  Sink.data_ref s 0x80;
  Sink.branch s ~pc:1 ~taken:true;
  Sink.io_wait s;
  Sink.account_refs s 10;
  let d = Sink.drain s in
  Alcotest.(check int) "instrs" 175 d.Sink.instrs;
  Alcotest.(check int) "refs" 2 d.Sink.n_refs;
  Alcotest.(check int) "io" 1 d.Sink.io_waits;
  Alcotest.(check int) "extra refs" 10 d.Sink.extra_refs;
  let region7 = List.assoc 7 (Array.to_list d.Sink.region_instrs) in
  Alcotest.(check int) "region merge" 150 region7;
  (* Drained sink is empty. *)
  let d2 = Sink.drain s in
  Alcotest.(check int) "empty after drain" 0 d2.Sink.instrs;
  Alcotest.(check int) "no refs after drain" 0 d2.Sink.n_refs

(* -------------------------------- Ops ------------------------------ *)

let ctx () = { Ops.rng = Rng.create 9; buf = None; yield_prob = 0.0 }

let run_op_to_completion op sink ~max_steps =
  let rec go steps =
    if steps > max_steps then Alcotest.fail "operator did not terminate"
    else
      match op.Ops.step sink with
      | Ops.Done -> steps
      | Ops.More | Ops.Blocked -> go (steps + 1)
  in
  go 0

let test_seq_scan_sequential_addresses () =
  let s = Addr_space.create () in
  let h = Heap.create s ~name:"t" ~rows:512 ~row_bytes:64 in
  let op = Ops.seq_scan (ctx ()) ~region:1 ~heap:h () in
  let sink = Sink.create () in
  ignore (run_op_to_completion op sink ~max_steps:1000);
  let d = Sink.drain sink in
  Alcotest.(check int) "one ref per 64B row line" 512 d.Sink.n_refs;
  let addrs = Array.sub d.Sink.addrs 0 d.Sink.n_refs in
  let sorted = Array.copy addrs in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "addresses sequential" sorted addrs;
  Alcotest.(check bool) "instrs attributed" true (d.Sink.instrs > 0)

let test_seq_scan_reset () =
  let s = Addr_space.create () in
  let h = Heap.create s ~name:"t" ~rows:100 ~row_bytes:64 in
  let op = Ops.seq_scan (ctx ()) ~region:1 ~heap:h () in
  let sink = Sink.create () in
  ignore (run_op_to_completion op sink ~max_steps:100);
  Alcotest.(check bool) "done stays done" true (op.Ops.step sink = Ops.Done);
  op.Ops.reset ();
  Alcotest.(check bool) "restarts after reset" true (op.Ops.step sink <> Ops.Done)

let test_index_scan_touches_btree () =
  let s = Addr_space.create () in
  let h = Heap.create s ~name:"t" ~rows:1000 ~row_bytes:64 in
  let bt = Btree.create ~node_bytes:256 ~base_addr:(Addr_space.alloc s ~bytes:(1 lsl 20)) () in
  Btree.bulk_load bt ~keys:(Array.init 1000 Fun.id) ~values:(Array.init 1000 Fun.id);
  let op =
    Ops.index_scan (ctx ()) ~region:2 ~btree:bt ~heap:h
      ~key_gen:(fun rng -> Rng.int rng 1000)
      ~probes:64 ()
  in
  let sink = Sink.create () in
  ignore (run_op_to_completion op sink ~max_steps:100);
  let d = Sink.drain sink in
  (* Each probe visits height nodes + 1 heap row. *)
  let expected = 64 * (Btree.height bt + 1) in
  Alcotest.(check int) "refs per probe" expected d.Sink.n_refs;
  Alcotest.(check bool) "branches emitted" true (d.Sink.n_branches > 0)

let test_sort_passes () =
  let s = Addr_space.create () in
  let op = Ops.sort (ctx ()) ~region:3 ~space:s ~bytes:65536 ~run_bytes:8192 ~fanin:2 () in
  let sink = Sink.create () in
  ignore (run_op_to_completion op sink ~max_steps:10_000);
  let d = Sink.drain sink in
  (* 8 runs, fanin 2 -> 3 merge passes; each pass reads+writes every line. *)
  let lines = 65536 / 64 in
  Alcotest.(check int) "refs = passes * lines * 2" (3 * lines * 2) d.Sink.n_refs

let test_hash_join_phases () =
  let s = Addr_space.create () in
  let build = Heap.create s ~name:"b" ~rows:128 ~row_bytes:64 in
  let probe = Heap.create s ~name:"p" ~rows:256 ~row_bytes:64 in
  let op = Ops.hash_join (ctx ()) ~region:4 ~space:s ~build ~probe () in
  let sink = Sink.create () in
  ignore (run_op_to_completion op sink ~max_steps:1000);
  let d = Sink.drain sink in
  (* build: 128*(read+write), probe: 256*(read+read) *)
  Alcotest.(check int) "total refs" ((128 * 2) + (256 * 2)) d.Sink.n_refs

let test_aggregate_refs () =
  let s = Addr_space.create () in
  let src = Heap.create s ~name:"s" ~rows:200 ~row_bytes:64 in
  let op = Ops.aggregate (ctx ()) ~region:5 ~space:s ~src () in
  let sink = Sink.create () in
  ignore (run_op_to_completion op sink ~max_steps:1000);
  let d = Sink.drain sink in
  Alcotest.(check int) "row + group per row" 400 d.Sink.n_refs

let test_compute_instrs_only () =
  let op = Ops.compute (ctx ()) ~region:6 ~instrs:10_000 () in
  let sink = Sink.create () in
  ignore (run_op_to_completion op sink ~max_steps:100);
  let d = Sink.drain sink in
  Alcotest.(check int) "exact instrs" 10_000 d.Sink.instrs;
  Alcotest.(check int) "no refs" 0 d.Sink.n_refs

let test_op_blocks_on_buffer_miss () =
  let s = Addr_space.create () in
  let h = Heap.create s ~name:"t" ~rows:10_000 ~row_bytes:64 in
  let buf = Bufcache.create ~pages:2 ~page_bytes:8192 in
  let ctx = { Ops.rng = Rng.create 5; buf = Some buf; yield_prob = 1.0 } in
  let op = Ops.seq_scan ctx ~region:1 ~heap:h () in
  let sink = Sink.create () in
  let rec first_block steps =
    if steps > 10_000 then Alcotest.fail "never blocked"
    else
      match op.Ops.step sink with
      | Ops.Blocked -> ()
      | Ops.Done -> Alcotest.fail "finished without blocking"
      | Ops.More -> first_block (steps + 1)
  in
  first_block 0;
  Alcotest.(check bool) "io recorded" true ((Sink.drain sink).Sink.io_waits > 0)

(* ------------------------------- Query ----------------------------- *)

let test_query_cycles () =
  let s = Addr_space.create () in
  let h = Heap.create s ~name:"t" ~rows:64 ~row_bytes:64 in
  let q =
    Query.create
      [|
        Ops.seq_scan (ctx ()) ~region:1 ~heap:h (); Ops.compute (ctx ()) ~region:2 ~instrs:1000 ();
      |]
  in
  let sink = Sink.create () in
  let rec drive n =
    if n > 10_000 then Alcotest.fail "query never completed"
    else
      match Query.step q sink with
      | Query.Query_done -> ()
      | Query.More | Query.Blocked -> drive (n + 1)
  in
  drive 0;
  (* Runs again after completion. *)
  drive 0

(* -------------------------------- Tpch ----------------------------- *)

let test_tpch_builds_all_queries () =
  let db = Tpch.create ~scale:0.02 ~seed:3 () in
  for qn = 1 to Tpch.n_queries do
    ignore (Tpch.query db qn : Query.t)
  done

let test_tpch_rejects_bad_query () =
  let db = Tpch.create ~scale:0.02 ~seed:3 () in
  Alcotest.check_raises "q0" (Invalid_argument "Tpch.query: query number out of 1..22")
    (fun () -> ignore (Tpch.query db 0));
  Alcotest.check_raises "q23" (Invalid_argument "Tpch.query: query number out of 1..22")
    (fun () -> ignore (Tpch.query db 23))

let test_tpch_q13_produces_events () =
  let db = Tpch.create ~scale:0.02 ~seed:3 () in
  let q = Tpch.query db 13 in
  let sink = Sink.create () in
  for _ = 1 to 50 do
    ignore (Query.step q sink)
  done;
  Alcotest.(check bool) "instrs" true (Sink.total_instrs sink > 0);
  Alcotest.(check bool) "refs" true ((Sink.drain sink).Sink.n_refs > 0)

let test_tpch_index_bigger_than_l3 () =
  let db = Tpch.create ~seed:3 () in
  let fp = Btree.footprint_bytes (Tpch.lineitem_index db) in
  Alcotest.(check bool)
    (Printf.sprintf "lineitem index %d bytes > 3MB" fp)
    true
    (fp > 3 * 1024 * 1024)

let test_tpch_region_bases_disjoint () =
  let seen = Hashtbl.create 64 in
  for q = 1 to Tpch.n_queries do
    let base = Tpch.region_base q in
    for r = base to base + 7 do
      Alcotest.(check bool) "region unique" false (Hashtbl.mem seen r);
      Hashtbl.add seen r ()
    done
  done

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "dbengine"
    [
      ("addr_space", [ Alcotest.test_case "disjoint" `Quick test_addr_space_disjoint ]);
      ( "btree",
        Alcotest.test_case "bulk load + find" `Quick test_btree_bulk_load_find
        :: Alcotest.test_case "trace path" `Quick test_btree_trace_path
        :: Alcotest.test_case "height logarithmic" `Quick test_btree_height_logarithmic
        :: Alcotest.test_case "rejects unsorted bulk" `Quick test_btree_bulk_rejects_unsorted
        :: qcheck [ prop_btree_matches_hashtbl; prop_btree_matches_oracle ]
        @ [
            Alcotest.test_case "rejects unequal key and value arrays" `Quick
              test_btree_bulk_rejects_unequal_lengths;
          ] );
      ( "cache_lru",
        [
          Alcotest.test_case "exact capacity" `Quick test_cache_lru_exact_capacity;
          Alcotest.test_case "bufcache pages" `Quick test_bufcache;
        ] );
      ("heap", [ Alcotest.test_case "addresses" `Quick test_heap_addresses ]);
      ("sink", [ Alcotest.test_case "accumulate and drain" `Quick test_sink_accumulate_drain ]);
      ( "ops",
        [
          Alcotest.test_case "seq_scan sequential" `Quick test_seq_scan_sequential_addresses;
          Alcotest.test_case "seq_scan reset" `Quick test_seq_scan_reset;
          Alcotest.test_case "index_scan traces btree" `Quick test_index_scan_touches_btree;
          Alcotest.test_case "sort passes" `Quick test_sort_passes;
          Alcotest.test_case "hash_join phases" `Quick test_hash_join_phases;
          Alcotest.test_case "aggregate" `Quick test_aggregate_refs;
          Alcotest.test_case "compute" `Quick test_compute_instrs_only;
          Alcotest.test_case "blocks on buffer miss" `Quick test_op_blocks_on_buffer_miss;
        ] );
      ("query", [ Alcotest.test_case "cycles and resets" `Quick test_query_cycles ]);
      ( "tpch",
        [
          Alcotest.test_case "builds all 22" `Quick test_tpch_builds_all_queries;
          Alcotest.test_case "rejects bad query number" `Quick test_tpch_rejects_bad_query;
          Alcotest.test_case "q13 produces events" `Quick test_tpch_q13_produces_events;
          Alcotest.test_case "lineitem index > L3" `Quick test_tpch_index_bigger_than_l3;
          Alcotest.test_case "region bases disjoint" `Quick test_tpch_region_bases_disjoint;
        ] );
    ]
