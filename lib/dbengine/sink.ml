(* A quantum touches a handful of code regions, so their counts sit in
   two parallel arrays kept sorted by region id, found by a linear scan
   from the front: no hashing per call, and [drain] reads them out in
   region order as they stand.  The event buffers are the sink's own
   arrays, grown by doubling, so recording an event costs the operator
   one call into this module and no more (DESIGN.md §12a). *)
type t = {
  mutable instr_total : int;
  mutable region_ids : int array;  (* the first [n_regions] are in use, increasing *)
  mutable region_counts : int array;  (* parallel to [region_ids] *)
  mutable n_regions : int;
  mutable addrs : int array;  (* the first [n_refs] are the references *)
  mutable n_refs : int;
  mutable branch_pcs : int array;  (* the first [n_branches] are the branches *)
  mutable branch_taken : bool array;  (* parallel to [branch_pcs] *)
  mutable n_branches : int;
  mutable io : int;
  mutable extra_refs : int;
  mutable extra_branches : int;
}

type drained = {
  instrs : int;
  region_instrs : (int * int) array;
  n_refs : int;
  addrs : int array;
  n_branches : int;
  branch_pcs : int array;
  branch_taken : bool array;
  io_waits : int;
  extra_refs : int;
  extra_branches : int;
}

let create () =
  {
    instr_total = 0;
    region_ids = Array.make 16 0;
    region_counts = Array.make 16 0;
    n_regions = 0;
    addrs = Array.make 1024 0;
    n_refs = 0;
    branch_pcs = Array.make 256 0;
    branch_taken = Array.make 256 false;
    n_branches = 0;
    io = 0;
    extra_refs = 0;
    extra_branches = 0;
  }

(* [a] doubled, its first [used] elements kept. *)
let grow a used fill =
  let b = Array.make (2 * used) fill in
  Array.blit a 0 b 0 used;
  b

let instrs (t : t) ~region n =
  if n < 0 then invalid_arg "Sink.instrs: negative count";
  t.instr_total <- t.instr_total + n;
  let ids = t.region_ids and used = t.n_regions in
  let i = ref 0 in
  while !i < used && ids.(!i) < region do
    incr i
  done;
  let i = !i in
  if i < used && ids.(i) = region then t.region_counts.(i) <- t.region_counts.(i) + n
  else begin
    if used = Array.length ids then begin
      t.region_ids <- grow ids used 0;
      t.region_counts <- grow t.region_counts used 0
    end;
    Array.blit t.region_ids i t.region_ids (i + 1) (used - i);
    Array.blit t.region_counts i t.region_counts (i + 1) (used - i);
    t.region_ids.(i) <- region;
    t.region_counts.(i) <- n;
    t.n_regions <- used + 1
  end

let data_ref (t : t) addr =
  let n = t.n_refs in
  if n = Array.length t.addrs then t.addrs <- grow t.addrs n 0;
  t.addrs.(n) <- addr;
  t.n_refs <- n + 1

let branch (t : t) ~pc ~taken =
  let n = t.n_branches in
  if n = Array.length t.branch_pcs then begin
    t.branch_pcs <- grow t.branch_pcs n 0;
    t.branch_taken <- grow t.branch_taken n false
  end;
  t.branch_pcs.(n) <- pc;
  t.branch_taken.(n) <- taken;
  t.n_branches <- n + 1

let io_wait (t : t) = t.io <- t.io + 1

let account_refs (t : t) n =
  if n < 0 then invalid_arg "Sink.account_refs: negative count";
  t.extra_refs <- t.extra_refs + n

let account_branches (t : t) n =
  if n < 0 then invalid_arg "Sink.account_branches: negative count";
  t.extra_branches <- t.extra_branches + n
let total_instrs (t : t) = t.instr_total

let drain (t : t) =
  let d =
    {
      instrs = t.instr_total;
      region_instrs =
        (* A fresh array, since every sample keeps it.  Region order feeds
           RNG draws and feature interning downstream: sorted by region
           id. *)
        Array.init t.n_regions (fun i -> (t.region_ids.(i), t.region_counts.(i)));
      (* Views, not copies: the next write to the sink reuses them. *)
      n_refs = t.n_refs;
      addrs = t.addrs;
      n_branches = t.n_branches;
      branch_pcs = t.branch_pcs;
      branch_taken = t.branch_taken;
      io_waits = t.io;
      extra_refs = t.extra_refs;
      extra_branches = t.extra_branches;
    }
  in
  t.instr_total <- 0;
  t.n_regions <- 0;
  t.n_refs <- 0;
  t.n_branches <- 0;
  t.io <- 0;
  t.extra_refs <- 0;
  t.extra_branches <- 0;
  d
