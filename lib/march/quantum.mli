(** One sampling quantum of work, the unit exchanged between workload
    models and the CPU model.

    A quantum stands for [instrs] retired instructions (the sampler's
    period — "1M instructions" at paper scale).  Because simulating every
    instruction of a multi-billion-instruction run is intractable, the
    workload emits a {e representative micro-trace}: a weighted subset of
    instruction-fetch lines, data references and branches.  Each simulated
    event stands for [*_weight] real events; the CPU model scales stall
    cycles accordingly while still driving genuine cache/predictor
    state.

    The event arrays may be longer than the events they carry: only the
    first [n_inst_lines] fetch lines, [n_refs] data references and
    [n_branches] branches are part of the quantum.  That lets a quantum
    view a sink's or a driver's reusable buffers without copying them;
    such a view is valid until the buffers are next written. *)

type t = {
  instrs : int;
  inst_lines : int array;  (** code line addresses fetched *)
  n_inst_lines : int;  (** fetches are [inst_lines.(0)] .. [inst_lines.(n_inst_lines - 1)] *)
  inst_weight : float;
  ref_addrs : int array;  (** data reference byte addresses *)
  n_refs : int;  (** events are [ref_addrs.(0)] .. [ref_addrs.(n_refs - 1)] *)
  ref_weight : float;
  branch_pcs : int array;
  branch_taken : bool array;  (** parallel to [branch_pcs] *)
  n_branches : int;  (** events are the first [n_branches] of each branch array *)
  branch_weight : float;
  extra_other_cycles : float;
      (** stall cycles charged directly to OTHER (OS overhead, context
          switch costs, structural events the cache model cannot see) *)
}

val make :
  instrs:int ->
  ?inst_lines:int array ->
  ?n_inst_lines:int ->
  ?inst_weight:float ->
  ?ref_addrs:int array ->
  ?n_refs:int ->
  ?ref_weight:float ->
  ?branch_pcs:int array ->
  ?branch_taken:bool array ->
  ?n_branches:int ->
  ?branch_weight:float ->
  ?extra_other_cycles:float ->
  unit ->
  t
(** Omitted event arrays default to empty; weights default to 1.
    [n_inst_lines], [n_refs] and [n_branches] default to the lengths of
    [inst_lines], [ref_addrs] and [branch_pcs] and must not exceed them;
    [branch_taken] must cover the first [n_branches] entries. *)
