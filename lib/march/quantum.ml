type t = {
  instrs : int;
  inst_lines : int array;
  n_inst_lines : int;
  inst_weight : float;
  ref_addrs : int array;
  n_refs : int;
  ref_weight : float;
  branch_pcs : int array;
  branch_taken : bool array;
  n_branches : int;
  branch_weight : float;
  extra_other_cycles : float;
}

let make ~instrs ?(inst_lines = [||]) ?n_inst_lines ?(inst_weight = 1.0) ?(ref_addrs = [||])
    ?n_refs ?(ref_weight = 1.0) ?(branch_pcs = [||]) ?(branch_taken = [||]) ?n_branches
    ?(branch_weight = 1.0) ?(extra_other_cycles = 0.0) () =
  if instrs <= 0 then invalid_arg "Quantum.make: instrs must be positive";
  let n_inst_lines = Option.value n_inst_lines ~default:(Array.length inst_lines) in
  if n_inst_lines < 0 || n_inst_lines > Array.length inst_lines then
    invalid_arg "Quantum.make: n_inst_lines out of range";
  let n_refs = Option.value n_refs ~default:(Array.length ref_addrs) in
  if n_refs < 0 || n_refs > Array.length ref_addrs then
    invalid_arg "Quantum.make: n_refs out of range";
  let n_branches = Option.value n_branches ~default:(Array.length branch_pcs) in
  if n_branches < 0 || n_branches > Array.length branch_pcs then
    invalid_arg "Quantum.make: n_branches out of range";
  if Array.length branch_taken < n_branches then
    invalid_arg "Quantum.make: branch_taken length mismatch";
  if inst_weight < 0.0 || ref_weight < 0.0 || branch_weight < 0.0 then
    invalid_arg "Quantum.make: negative weight";
  {
    instrs;
    inst_lines;
    n_inst_lines;
    inst_weight;
    ref_addrs;
    n_refs;
    ref_weight;
    branch_pcs;
    branch_taken;
    n_branches;
    branch_weight;
    extra_other_cycles;
  }
