module Acc = Stats.Describe.Acc

type t = {
  acc : Acc.t;  (* the whole stream, in arrival order *)
  ring : float array;
  mutable filled : int;  (* values currently in the ring, <= window *)
  mutable head : int;  (* next write position *)
}

let create ?(window = 16) () =
  if window < 2 then invalid_arg "Sketch.create: window must be at least 2";
  { acc = Acc.create (); ring = Array.make window 0.0; filled = 0; head = 0 }

let add t x =
  Acc.add t.acc x;
  let w = Array.length t.ring in
  t.ring.(t.head) <- x;
  t.head <- (t.head + 1) mod w;
  if t.filled < w then t.filled <- t.filled + 1

let n t = Acc.n t.acc
let mean t = Acc.mean t.acc
let variance t = Acc.variance t.acc

let window_fill t = t.filled

(* Two-pass over the (tiny) ring: exact, and queried only once per sealed
   interval so the O(window) cost is irrelevant. *)
let window_variance t =
  if t.filled < 2 then 0.0
  else begin
    let w = Array.length t.ring in
    let start = (t.head - t.filled + w) mod w in
    let sum = ref 0.0 in
    for k = 0 to t.filled - 1 do
      sum := !sum +. t.ring.((start + k) mod w)
    done;
    let m = !sum /. float_of_int t.filled in
    let acc = ref 0.0 in
    for k = 0 to t.filled - 1 do
      let d = t.ring.((start + k) mod w) -. m in
      acc := !acc +. (d *. d)
    done;
    !acc /. float_of_int t.filled
  end
