module Rng = Stats.Rng
module Dist = Stats.Dist
module Sink = Dbengine.Sink
module Heap = Dbengine.Heap
module Btree = Dbengine.Btree

type params = {
  scale : float;
  threads : int;
  buf_pages : int;
  probes_per_txn : int;
  instrs_per_txn : int;
  yield_prob : float;
  key_skew : float;
}

let default_params =
  {
    scale = 1.0;
    threads = 12;
    buf_pages = 6_000;
    probes_per_txn = 30;
    instrs_per_txn = 4_000;
    yield_prob = 0.014;
    key_skew = 0.0;
  }

let region_base = 2000
let n_regions = 12
let eips_per_region = 1800

(* Transaction mix loosely after TPC-C: each type executes a different
   subset of the executor's code regions. *)
let txn_types =
  [|
    ("new_order", 0.45, [ 0; 1; 2; 3 ]);
    ("payment", 0.43, [ 0; 4; 5 ]);
    ("order_status", 0.04, [ 0; 6; 7 ]);
    ("delivery", 0.04, [ 0; 8; 9 ]);
    ("stock_level", 0.04, [ 0; 10; 11 ]);
  |]

(* Adversarial B-tree key skew: concentrate probes on a hot key prefix.
   [skew = 0] is (exactly) the historical uniform draw; larger values bend
   the distribution towards key 0, so hot index paths stay buffer- and
   cache-resident while the tail still misses — CPI then depends on the
   probe mix, not on the (unchanged) executor code. *)
let draw_key trng ~skew n =
  if skew <= 0.0 then Rng.int trng n
  else begin
    let u = Rng.float trng 1.0 in
    min (n - 1) (int_of_float (Float.pow u (1.0 +. (4.0 *. skew)) *. float_of_int n))
  end

let model ?(params = default_params) ?(name = "odb_c") ?addr_base ~seed () =
  if params.key_skew < 0.0 || params.key_skew > 1.0 then
    invalid_arg "Oltp.model: key_skew out of [0,1]";
  let code = Code_map.create () in
  for r = 0 to n_regions - 1 do
    Code_map.register code ~region:(region_base + r) ~n_eips:eips_per_region ~skew:0.9 ()
  done;
  let space = Dbengine.Addr_space.create ?base:addr_base () in
  let rng = Rng.create seed in
  let rows base = max 1024 (int_of_float (float_of_int base *. params.scale)) in
  let accounts = Heap.create space ~name:"accounts" ~rows:(rows 640_000) ~row_bytes:100 in
  let index =
    let n = accounts.Heap.rows in
    let bt =
      Btree.create ~fanout:32 ~node_bytes:512
        ~base_addr:(Dbengine.Addr_space.alloc space ~bytes:(n * 40))
        ()
    in
    Btree.bulk_load bt (Array.init n (fun k -> (k, k * 2654435761 mod n)));
    bt
  in
  let log = Heap.create space ~name:"redo_log" ~rows:(rows 200_000) ~row_bytes:64 in
  let buf = Dbengine.Bufcache.create ~pages:params.buf_pages ~page_bytes:8192 in
  let mix = Dist.categorical (Array.map (fun (_, p, _) -> p) txn_types) in
  let log_cursor = ref 0 in
  let make_thread tid =
    let trng = Rng.split rng in
    let fill sink ~budget =
      let start = Sink.total_instrs sink in
      let blocked = ref false in
      let visit node_addr = Sink.data_ref sink node_addr in
      while (not !blocked) && Sink.total_instrs sink - start < budget do
        (* One transaction. *)
        let _, _, regions = txn_types.(Dist.categorical_draw mix trng) in
        let nregions = List.length regions in
        List.iter
          (fun r ->
            Sink.instrs sink ~region:(region_base + r) (params.instrs_per_txn / nregions))
          regions;
        for _ = 1 to params.probes_per_txn do
          (* Uniformly random key by default: no locality, so misses
             spread evenly over the whole run.  [key_skew] bends this. *)
          let key = draw_key trng ~skew:params.key_skew (Btree.n_keys index) in
          let row = Btree.lookup index key ~visit in
          Sink.branch sink ~pc:(region_base * 1024) ~taken:(key land 1 = 0);
          if row >= 0 && row < accounts.Heap.rows then begin
            let addr = Heap.addr_of_row accounts row in
            (* The draw a store flag took when stores were recorded:
               the stream's draw order is output, so it stays. *)
            ignore (Rng.bits trng : int);
            Sink.data_ref sink addr;
            if not (Dbengine.Bufcache.touch buf addr) then
              if Rng.bernoulli trng params.yield_prob then begin
                Sink.io_wait sink;
                blocked := true
              end
          end
        done;
        (* Log append: sequential writes, always cached. *)
        let log_row = !log_cursor mod log.Heap.rows in
        log_cursor := !log_cursor + 1;
        Sink.data_ref sink (Heap.addr_of_row log log_row);
        (* Commit branch. *)
        Sink.branch sink ~pc:((region_base * 1024) + 8) ~taken:true
      done;
      if !blocked then `Blocked else `Ok
    in
    { Model.tid; fill }
  in
  let threads = Array.init params.threads make_thread in
  Model.make ~name ~code ~threads
    ~switch_period:170_000 (* ~2600 switches/s at the paper's clock/CPI *)
    ~os_per_switch:4_500 ~os_per_io:4_000 ~pollute_on_switch:0.4 ()
