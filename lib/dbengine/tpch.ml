module Rng = Stats.Rng
module Dist = Stats.Dist

type db = {
  space : Addr_space.t;
  ctx : Ops.ctx;
  buf : Bufcache.t;
  rng : Rng.t;
  lineitem : Heap.t;
  orders : Heap.t;
  customer : Heap.t;
  part : Heap.t;
  supplier : Heap.t;
  lineitem_idx : Btree.t;
  orders_idx : Btree.t;
  part_idx : Btree.t;
}

let n_queries = 22

let region_base q = 100 * q

(* Spread index values across the heap so skewed keys hit random pages. *)
let scatter_value ~rows k = k * 2654435761 mod rows

let build_index space ~rows ~node_bytes =
  let bt =
    Btree.create ~fanout:32 ~node_bytes
      ~base_addr:(Addr_space.alloc space ~bytes:(rows * node_bytes / 16))
      ()
  in
  Btree.bulk_load bt (Array.init rows (fun k -> (k, scatter_value ~rows k)));
  bt

let create ?(scale = 1.0) ?(buf_pages = 4096) ?addr_base ~seed () =
  if scale <= 0.0 then invalid_arg "Tpch.create: scale must be positive";
  let space = Addr_space.create ?base:addr_base () in
  let rng = Rng.create seed in
  let buf = Bufcache.create ~pages:buf_pages ~page_bytes:8192 in
  let rows base = max 64 (int_of_float (float_of_int base *. scale)) in
  let lineitem = Heap.create space ~name:"lineitem" ~rows:(rows 360_000) ~row_bytes:120 in
  let orders = Heap.create space ~name:"orders" ~rows:(rows 120_000) ~row_bytes:120 in
  let customer = Heap.create space ~name:"customer" ~rows:(rows 12_000) ~row_bytes:180 in
  let part = Heap.create space ~name:"part" ~rows:(rows 200_000) ~row_bytes:150 in
  let supplier = Heap.create space ~name:"supplier" ~rows:(rows 800) ~row_bytes:150 in
  (* The lineitem index is deliberately larger than the biggest simulated
     L3 (1 KB nodes -> ~5-6 MB) so index-scan locality decides its hit
     rate. *)
  let lineitem_idx = build_index space ~rows:lineitem.Heap.rows ~node_bytes:1024 in
  let orders_idx = build_index space ~rows:orders.Heap.rows ~node_bytes:1024 in
  let part_idx = build_index space ~rows:part.Heap.rows ~node_bytes:1024 in
  let ctx = { Ops.rng = Rng.split rng; buf = Some buf; yield_prob = 0.002 } in
  { space; ctx; buf; rng; lineitem; orders; customer; part; supplier; lineitem_idx;
    orders_idx; part_idx }

(* Drifting locality: keys cluster in a window whose size random-walks
   between "fits in cache" and "far too big", changing regime slowly
   relative to an EIPV interval.  Recently-visited B-tree regions are
   warm, fresh regions cold, so per-interval CPI depends on the data, not
   the code (the paper's explanation of Q18: "index based table scans can
   have a highly unpredictable behavior due to the randomness of the tree
   traversal"). *)
let walking_key n ~window ~jump_prob =
  let centre = ref 0 in
  (* The window-size walk is bounded so that it straddles the capacity of
     the large caches: the lower bound keeps the hot B-tree subtree around
     the L2/L3 boundary, the upper bound is the whole key space.  The
     regime therefore oscillates between "descends mostly hit" and
     "descends mostly miss" on a timescale of many EIPV intervals. *)
  let min_size = float_of_int (max 64 (min window (n / 8))) in
  let max_size = float_of_int n in
  let size = ref (sqrt (min_size *. max_size)) in
  let draws = ref 0 in
  fun rng ->
    incr draws;
    (* Regime steps are rare and large so a locality regime persists
       across several EIPV intervals instead of averaging out inside
       one. *)
    if !draws land 511 = 0 then begin
      let f = 1.0 +. ((Rng.float rng 2.0 -. 1.0) *. 0.45) in
      size := Float.max min_size (Float.min max_size (!size *. f))
    end;
    if Rng.bernoulli rng jump_prob then centre := Rng.int rng n;
    let off = Rng.int rng (max 1 (int_of_float !size)) in
    (!centre + off) mod n

let q db n =
  let r i = region_base n + i in
  let ctx = db.ctx in
  let space = db.space in
  let seq = Ops.seq_scan ctx and idx = Ops.index_scan ctx in
  let sort = Ops.sort ctx and join = Ops.hash_join ctx and agg = Ops.aggregate ctx in
  let compute = Ops.compute ctx in
  let li = db.lineitem and ords = db.orders and cust = db.customer in
  let prt = db.part and supp = db.supplier in
  let li_rows = li.Heap.rows in
  let ops =
    match n with
    (* Scan-dominated aggregations. *)
    | 1 -> [| seq ~region:(r 0) ~heap:li ~instr_per_row:71 ();
              seq ~region:(r 1) ~heap:li ~instr_per_row:66 ();
              agg ~region:(r 2) ~space ~src:supp () |]
    | 6 -> [| seq ~region:(r 0) ~heap:li ~instr_per_row:66 ~selectivity:0.02 ();
              seq ~region:(r 1) ~heap:li ~instr_per_row:63 ();
              agg ~region:(r 2) ~space ~src:supp () |]
    | 14 -> [| seq ~region:(r 0) ~heap:li ~instr_per_row:68 ();
               seq ~region:(r 1) ~heap:li ~instr_per_row:64 ();
               agg ~region:(r 2) ~space ~src:supp () |]
    | 15 -> [| seq ~region:(r 0) ~heap:li ~instr_per_row:72 ();
               seq ~region:(r 1) ~heap:li ~instr_per_row:68 ();
               agg ~region:(r 2) ~space ~src:supp () |]
    (* Multi-phase scan/join/sort plans. *)
    | 3 -> [| seq ~region:(r 0) ~heap:cust ~instr_per_row:50 ();
              join ~region:(r 1) ~space ~build:cust ~probe:ords ();
              seq ~region:(r 2) ~heap:li ~instr_per_row:60 ();
              sort ~region:(r 3) ~space ~bytes:(1 lsl 23) ();
              agg ~region:(r 4) ~space ~src:supp () |]
    | 4 -> [| seq ~region:(r 0) ~heap:ords ~instr_per_row:55 ();
              join ~region:(r 1) ~space ~build:ords ~probe:li ();
              agg ~region:(r 2) ~space ~src:ords () |]
    | 5 -> [| seq ~region:(r 0) ~heap:cust ~instr_per_row:50 ();
              join ~region:(r 1) ~space ~build:cust ~probe:ords ();
              join ~region:(r 2) ~space ~build:supp ~probe:li ();
              sort ~region:(r 3) ~space ~bytes:(1 lsl 23) ();
              agg ~region:(r 4) ~space ~src:supp () |]
    | 7 -> [| seq ~region:(r 0) ~heap:li ~instr_per_row:60 ();
              join ~region:(r 1) ~space ~build:supp ~probe:li ();
              sort ~region:(r 2) ~space ~bytes:(1 lsl 21) ();
              agg ~region:(r 3) ~space ~src:ords () |]
    | 8 -> [| seq ~region:(r 0) ~heap:prt ~instr_per_row:45 ();
              join ~region:(r 1) ~space ~build:prt ~probe:li ();
              agg ~region:(r 2) ~space ~src:ords ();
              sort ~region:(r 3) ~space ~bytes:(1 lsl 20) () |]
    | 9 -> [| seq ~region:(r 0) ~heap:prt ~instr_per_row:45 ();
              join ~region:(r 1) ~space ~build:prt ~probe:li ();
              sort ~region:(r 2) ~space ~bytes:(1 lsl 22) () |]
    | 10 -> [| seq ~region:(r 0) ~heap:cust ~instr_per_row:50 ();
               join ~region:(r 1) ~space ~build:cust ~probe:li ();
               sort ~region:(r 2) ~space ~bytes:(1 lsl 23) ();
               agg ~region:(r 3) ~space ~src:supp () |]
    | 12 -> [| seq ~region:(r 0) ~heap:ords ~instr_per_row:55 ();
               join ~region:(r 1) ~space ~build:ords ~probe:li ();
               agg ~region:(r 2) ~space ~src:ords () |]
    | 13 ->
        (* The paper's strong-phase exemplar: scan, join and sort of two
           large tables, executed repeatedly over a large data set. *)
        [| seq ~region:(r 0) ~heap:ords ~instr_per_row:60 ();
           join ~region:(r 1) ~space ~build:cust ~probe:ords ();
           sort ~region:(r 2) ~space ~bytes:(1 lsl 23) ();
           agg ~region:(r 3) ~space ~src:ords () |]
    (* Index-scan plans: B-tree descent under drifting skew. *)
    | 2 -> [| idx ~region:(r 0) ~btree:db.part_idx ~heap:prt
                ~key_gen:(walking_key prt.Heap.rows ~window:10_000 ~jump_prob:0.0006)
                ~probes:1_500_000 ~heap_prob:0.3 ();
              sort ~region:(r 1) ~space ~bytes:(1 lsl 18) () |]
    | 16 -> [| idx ~region:(r 0) ~btree:db.part_idx ~heap:prt
                 ~key_gen:(walking_key prt.Heap.rows ~window:10_000 ~jump_prob:0.0008)
                 ~probes:2_000_000 ~heap_prob:0.3 ();
               agg ~region:(r 1) ~space ~src:supp () |]
    | 17 -> [| idx ~region:(r 0) ~btree:db.lineitem_idx ~heap:li
                 ~key_gen:(walking_key li_rows ~window:30_000 ~jump_prob:0.0005)
                 ~probes:3_000_000 ~instr_per_level:52 ~heap_prob:0.2 ();
               agg ~region:(r 1) ~space ~src:prt () |]
    | 18 ->
        (* The paper's weak-phase exemplar: functionally like Q13 but the
           optimiser picks an index scan; tree-traversal randomness makes
           CPI vary under constant code. *)
        [| idx ~region:(r 0) ~btree:db.lineitem_idx ~heap:li
             ~key_gen:(walking_key li_rows ~window:30_000 ~jump_prob:0.0004)
             ~probes:4_000_000 ~instr_per_level:58 ~heap_prob:0.15 ();
           join ~region:(r 1) ~space ~build:cust ~probe:ords ();
           sort ~region:(r 2) ~space ~bytes:(1 lsl 17) () |]
    | 19 -> [| idx ~region:(r 0) ~btree:db.lineitem_idx ~heap:li
                 ~key_gen:(walking_key li_rows ~window:30_000 ~jump_prob:0.0007)
                 ~probes:2_400_000 ~instr_per_level:48 ~heap_prob:0.25 ();
               idx ~region:(r 1) ~btree:db.part_idx ~heap:prt
                 ~key_gen:(walking_key prt.Heap.rows ~window:10_000 ~jump_prob:0.001)
                 ~probes:1_200_000 ~heap_prob:0.3 () |]
    | 20 -> [| idx ~region:(r 0) ~btree:db.lineitem_idx ~heap:li
                 ~key_gen:(walking_key li_rows ~window:30_000 ~jump_prob:0.0005)
                 ~probes:3_000_000 ~instr_per_level:54 ~heap_prob:0.2 ();
               seq ~region:(r 1) ~heap:supp ~instr_per_row:45 () |]
    | 21 -> [| idx ~region:(r 0) ~btree:db.lineitem_idx ~heap:li
                 ~key_gen:(walking_key li_rows ~window:30_000 ~jump_prob:0.0008)
                 ~probes:2_500_000 ~instr_per_level:52 ~heap_prob:0.25 ();
               idx ~region:(r 1) ~btree:db.lineitem_idx ~heap:li
                 ~key_gen:(walking_key li_rows ~window:256 ~jump_prob:0.003)
                 ~probes:60_000 () |]
    (* Trivial cache-resident queries. *)
    | 11 -> [| seq ~region:(r 0) ~heap:supp ~instr_per_row:40 ();
               agg ~region:(r 1) ~space ~src:supp ~groups:64 ();
               compute ~region:(r 2) ~instrs:400_000 () |]
    | 22 -> [| seq ~region:(r 0) ~heap:supp ~instr_per_row:42 ();
               agg ~region:(r 1) ~space ~src:supp ~groups:32 ();
               compute ~region:(r 2) ~instrs:500_000 () |]
    | _ -> invalid_arg "Tpch.query: query number out of 1..22"
  in
  Query.create ops

let query db n =
  if n < 1 || n > n_queries then invalid_arg "Tpch.query: query number out of 1..22";
  q db n

(* Q18 touches a large share of lineitem ("customers who have EVER placed
   large quantity orders"): at this selectivity a textbook cost model
   prefers the index only marginally -- the fuzzy boundary again. *)
let q18_selectivity = 0.08

let q18_variant db ~access =
  let r i = region_base 18 + i in
  let ctx = db.ctx and space = db.space in
  let li = db.lineitem and ords = db.orders and cust = db.customer in
  let ops =
    match access with
    | Optimizer.Index_scan ->
        [|
          Ops.index_scan ctx ~region:(r 0) ~btree:db.lineitem_idx ~heap:li
            ~key_gen:(walking_key li.Heap.rows ~window:30_000 ~jump_prob:0.0004)
            ~probes:4_000_000 ~instr_per_level:58 ~heap_prob:0.15 ();
          Ops.hash_join ctx ~region:(r 1) ~space ~build:cust ~probe:ords ();
          Ops.sort ctx ~region:(r 2) ~space ~bytes:(1 lsl 17) ();
        |]
    | Optimizer.Seq_scan ->
        [|
          Ops.seq_scan ctx ~region:(r 0) ~heap:li ~instr_per_row:62
            ~selectivity:q18_selectivity ();
          Ops.hash_join ctx ~region:(r 1) ~space ~build:cust ~probe:ords ();
          Ops.sort ctx ~region:(r 2) ~space ~bytes:(1 lsl 23) ();
          Ops.aggregate ctx ~region:(r 3) ~space ~src:db.supplier ();
        |]
  in
  Query.create ops

let lineitem db = db.lineitem
let lineitem_index db = db.lineitem_idx
