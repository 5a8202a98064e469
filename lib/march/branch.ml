type t = {
  table : Bytes.t;  (* 2-bit saturating counters, one byte each *)
  mask : int;
  mutable history : int;
}

let create ~table_bits () =
  if table_bits < 1 || table_bits > 24 then invalid_arg "Branch.create: table_bits out of range";
  let n = 1 lsl table_bits in
  { table = Bytes.make n '\002' (* weakly taken *); mask = n - 1; history = 0 }

let index t ~pc = (pc lxor t.history) land t.mask

let update t ~pc ~taken =
  let i = index t ~pc in
  let c = Char.code (Bytes.get t.table i) in
  let predicted = c >= 2 in
  let c' = if taken then min 3 (c + 1) else max 0 (c - 1) in
  Bytes.set t.table i (Char.chr c');
  t.history <- ((t.history lsl 1) lor (if taken then 1 else 0)) land t.mask;
  predicted <> taken
