type t = {
  table : Bytes.t;  (* 2-bit saturating counters, one byte each *)
  mask : int;
  mutable history : int;
}

let create ~table_bits () =
  if table_bits < 1 || table_bits > 24 then invalid_arg "Branch.create: table_bits out of range";
  let n = 1 lsl table_bits in
  { table = Bytes.make n '\002' (* weakly taken *); mask = n - 1; history = 0 }

let[@inline] update t ~pc ~taken =
  let i = (pc lxor t.history) land t.mask in
  let c = Bytes.get_uint8 t.table i in
  let predicted = c >= 2 in
  Bytes.set_uint8 t.table i (if taken then Int.min 3 (c + 1) else Int.max 0 (c - 1));
  t.history <- ((t.history lsl 1) lor Bool.to_int taken) land t.mask;
  predicted <> taken

(* The per-branch loop lives here, next to [update], so a quantum's
   branches cost one call into this module (DESIGN.md §12a). *)
let mispredicts t ~pcs ~taken ~n =
  let wrong = ref 0 in
  for i = 0 to n - 1 do
    if update t ~pc:pcs.(i) ~taken:taken.(i) then incr wrong
  done;
  !wrong
