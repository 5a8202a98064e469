module Rng = Stats.Rng

type status = More | Blocked | Done

type t = {
  name : string;
  region : int;
  step : Sink.t -> status;
  reset : unit -> unit;
}

type ctx = {
  rng : Rng.t;
  buf : Bufcache.t option;
  yield_prob : float;
}

let line_bytes = 64

(* Touch the buffer cache for a page-level access; returns true when the
   access blocked on I/O. *)
let page_io ctx sink addr =
  match ctx.buf with
  | None -> false
  | Some buf ->
      if Bufcache.touch buf addr then false
      else if Rng.bernoulli ctx.rng ctx.yield_prob then begin
        Sink.io_wait sink;
        true
      end
      else false

let seq_scan ctx ~region ~heap ?(instr_per_row = 60) ?(selectivity = 0.5)
    ?(rows_per_step = 64) () =
  let cursor = ref 0 in
  let pc_loop = region * 1024
  and pc_pred = (region * 1024) + 8 in
  let page_bytes = heap.Heap.page_bytes in
  let step sink =
    if !cursor >= heap.Heap.rows then Done
    else begin
      let stop = min heap.Heap.rows (!cursor + rows_per_step) in
      let blocked = ref false in
      (try
         while !cursor < stop do
           let row = !cursor in
           let addr = Heap.addr_of_row heap row in
           Sink.instrs sink ~region instr_per_row;
           (* One reference per fresh cache line; rows can share lines. *)
           let prev_line = if row = 0 then -1 else (Heap.addr_of_row heap (row - 1)) / line_bytes in
           let first_line = addr / line_bytes in
           let last_line = (addr + heap.Heap.row_bytes - 1) / line_bytes in
           for l = Int.max first_line (prev_line + 1) to last_line do
             Sink.data_ref sink (l * line_bytes)
           done;
           Sink.branch sink ~pc:pc_loop ~taken:(row + 1 < heap.Heap.rows);
           Sink.branch sink ~pc:pc_pred ~taken:(Rng.bernoulli ctx.rng selectivity);
           (* Page-crossing triggers the buffer cache. *)
           if row = 0 || addr / page_bytes <> Heap.addr_of_row heap (row - 1) / page_bytes then
             if page_io ctx sink addr then begin
               cursor := row + 1;
               blocked := true;
               raise Exit
             end;
           cursor := row + 1
         done
       with Exit -> ());
      if !blocked then Blocked else if !cursor >= heap.Heap.rows then Done else More
    end
  in
  let reset () = cursor := 0 in
  { name = "seq_scan(" ^ heap.Heap.name ^ ")"; region; step; reset }

let index_scan ctx ~region ~btree ~heap ~key_gen ~probes ?(instr_per_level = 70)
    ?(probes_per_step = 16) ?(heap_prob = 1.0) () =
  let done_probes = ref 0 in
  let pc_cmp = (region * 1024) + 16 in
  let step sink =
    if !done_probes >= probes then Done
    else begin
      let stop = min probes (!done_probes + probes_per_step) in
      let blocked = ref false in
      let key = ref 0 and depth = ref 0 in
      let visit node_addr =
        incr depth;
        Sink.data_ref sink node_addr;
        (* Binary-search comparisons inside a node: directions follow the
           key bits — data-dependent, hard to predict. *)
        Sink.branch sink ~pc:pc_cmp ~taken:(!key land 1 = 0);
        Sink.branch sink ~pc:(pc_cmp + 8) ~taken:(!key land 2 = 0)
      in
      (try
         while !done_probes < stop do
           key := key_gen ctx.rng;
           depth := 0;
           let row = Btree.lookup btree !key ~visit in
           Sink.instrs sink ~region ((!depth * instr_per_level) + 40);
           if row >= 0 && row < heap.Heap.rows && Rng.bernoulli ctx.rng heap_prob then begin
             let addr = Heap.addr_of_row heap row in
             Sink.data_ref sink addr;
             if page_io ctx sink addr then begin
               incr done_probes;
               blocked := true;
               raise Exit
             end
           end;
           incr done_probes
         done
       with Exit -> ());
      if !blocked then Blocked else if !done_probes >= probes then Done else More
    end
  in
  let reset () = done_probes := 0 in
  { name = "index_scan"; region; step; reset }

let sort ctx ~region ~space ~bytes ?(run_bytes = 1 lsl 20) ?(fanin = 8)
    ?(instr_per_line = 90) ?(lines_per_step = 64) () =
  if bytes <= 0 then invalid_arg "Ops.sort: bytes must be positive";
  let src = Addr_space.alloc space ~bytes and dst = Addr_space.alloc space ~bytes in
  let lines = max 1 (bytes / line_bytes) in
  let passes =
    let rec go p runs = if runs <= 1 then max 1 p else go (p + 1) ((runs + fanin - 1) / fanin) in
    go 0 ((bytes + run_bytes - 1) / run_bytes)
  in
  let pass = ref 0 and offset = ref 0 in
  let pc_cmp = (region * 1024) + 24 in
  let step sink =
    if !pass >= passes then Done
    else begin
      let stop = min lines (!offset + lines_per_step) in
      let src_base, dst_base = if !pass land 1 = 0 then (src, dst) else (dst, src) in
      while !offset < stop do
        let a = src_base + (!offset * line_bytes) in
        Sink.instrs sink ~region instr_per_line;
        Sink.data_ref sink a;
        Sink.data_ref sink (dst_base + (!offset * line_bytes));
        (* Merge comparison: winner side is data-dependent. *)
        Sink.branch sink ~pc:pc_cmp ~taken:(Rng.bool ctx.rng);
        incr offset
      done;
      if !offset >= lines then begin
        offset := 0;
        incr pass
      end;
      if !pass >= passes then Done else More
    end
  in
  let reset () =
    pass := 0;
    offset := 0
  in
  { name = "sort"; region; step; reset }

let hash_join ctx ~region ~space ~build ~probe ?(match_prob = 0.7) ?(instr_per_row = 50)
    ?(rows_per_step = 64) () =
  let hash_bytes = max 4096 (build.Heap.rows * 16) in
  let hash_base = Addr_space.alloc space ~bytes:hash_bytes in
  let hash_slots = hash_bytes / 16 in
  let phase = ref `Build and cursor = ref 0 in
  let pc_probe = (region * 1024) + 32 in
  let scatter () = hash_base + (Rng.int ctx.rng hash_slots * 16) in
  let step sink =
    match !phase with
    | `Build ->
        let stop = min build.Heap.rows (!cursor + rows_per_step) in
        while !cursor < stop do
          let addr = Heap.addr_of_row build !cursor in
          Sink.instrs sink ~region instr_per_row;
          Sink.data_ref sink addr;
          Sink.data_ref sink (scatter ());
          incr cursor
        done;
        if !cursor >= build.Heap.rows then begin
          phase := `Probe;
          cursor := 0
        end;
        More
    | `Probe ->
        if !cursor >= probe.Heap.rows then Done
        else begin
          let stop = min probe.Heap.rows (!cursor + rows_per_step) in
          while !cursor < stop do
            let addr = Heap.addr_of_row probe !cursor in
            Sink.instrs sink ~region instr_per_row;
            Sink.data_ref sink addr;
            Sink.data_ref sink (scatter ());
            Sink.branch sink ~pc:pc_probe ~taken:(Rng.bernoulli ctx.rng match_prob);
            incr cursor
          done;
          if !cursor >= probe.Heap.rows then Done else More
        end
  in
  let reset () =
    phase := `Build;
    cursor := 0
  in
  { name = "hash_join"; region; step; reset }

let aggregate ctx ~region ~space ~src ?(groups = 256) ?(instr_per_row = 45)
    ?(rows_per_step = 64) () =
  let group_base = Addr_space.alloc space ~bytes:(max 4096 (groups * 32)) in
  let cursor = ref 0 in
  let pc_loop = (region * 1024) + 40 in
  let step sink =
    if !cursor >= src.Heap.rows then Done
    else begin
      let stop = min src.Heap.rows (!cursor + rows_per_step) in
      while !cursor < stop do
        let addr = Heap.addr_of_row src !cursor in
        Sink.instrs sink ~region instr_per_row;
        Sink.data_ref sink addr;
        Sink.data_ref sink (group_base + (Rng.int ctx.rng groups * 32));
        Sink.branch sink ~pc:pc_loop ~taken:(!cursor + 1 < src.Heap.rows);
        incr cursor
      done;
      if !cursor >= src.Heap.rows then Done else More
    end
  in
  let reset () = cursor := 0 in
  { name = "aggregate"; region; step; reset }

let compute ctx ~region ~instrs ?(instr_per_step = 2000) () =
  ignore ctx;
  let left = ref instrs in
  let pc_loop = (region * 1024) + 48 in
  let step sink =
    if !left <= 0 then Done
    else begin
      let chunk = min instr_per_step !left in
      Sink.instrs sink ~region chunk;
      Sink.branch sink ~pc:pc_loop ~taken:true;
      left := !left - chunk;
      if !left <= 0 then Done else More
    end
  in
  let reset () = left := instrs in
  { name = "compute"; region; step; reset }
