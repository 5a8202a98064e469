module Gv = Stats.Growvec

type t = {
  mutable instr_total : int;
  regions : (int, int ref) Hashtbl.t;
  addrs : Gv.Int.t;
  writes : Gv.Bool.t;
  branch_pcs : Gv.Int.t;
  branch_taken : Gv.Bool.t;
  mutable io : int;
  mutable extra_refs : int;
  mutable extra_branches : int;
}

type drained = {
  instrs : int;
  region_instrs : (int * int) array;
  n_refs : int;
  addrs : int array;
  writes : bool array;
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
    regions = Hashtbl.create 16;
    addrs = Gv.Int.create ~capacity:1024 ();
    writes = Gv.Bool.create ~capacity:1024 ();
    branch_pcs = Gv.Int.create ~capacity:256 ();
    branch_taken = Gv.Bool.create ~capacity:256 ();
    io = 0;
    extra_refs = 0;
    extra_branches = 0;
  }

let instrs (t : t) ~region n =
  if n < 0 then invalid_arg "Sink.instrs: negative count";
  t.instr_total <- t.instr_total + n;
  match Hashtbl.find_opt t.regions region with
  | Some r -> r := !r + n
  | None -> Hashtbl.add t.regions region (ref n)

let data_ref (t : t) ?(write = false) addr =
  Gv.Int.push t.addrs addr;
  Gv.Bool.push t.writes write

let branch (t : t) ~pc ~taken =
  Gv.Int.push t.branch_pcs pc;
  Gv.Bool.push t.branch_taken taken

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
        (* Region order feeds RNG draws and feature interning downstream:
           sorted by region id, not bucket order. *)
        Stats.Det.hashtbl_bindings t.regions
        |> List.map (fun (r, c) -> (r, !c))
        |> Array.of_list;
      (* Views, not copies: the next write to the sink reuses them. *)
      n_refs = Gv.Int.length t.addrs;
      addrs = Gv.Int.data t.addrs;
      writes = Gv.Bool.data t.writes;
      n_branches = Gv.Int.length t.branch_pcs;
      branch_pcs = Gv.Int.data t.branch_pcs;
      branch_taken = Gv.Bool.data t.branch_taken;
      io_waits = t.io;
      extra_refs = t.extra_refs;
      extra_branches = t.extra_branches;
    }
  in
  t.instr_total <- 0;
  Hashtbl.reset t.regions;
  Gv.Int.clear t.addrs;
  Gv.Bool.clear t.writes;
  Gv.Int.clear t.branch_pcs;
  Gv.Bool.clear t.branch_taken;
  t.io <- 0;
  t.extra_refs <- 0;
  t.extra_branches <- 0;
  d
