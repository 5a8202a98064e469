module Acc = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () = { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let n t = t.n
  let mean t = t.mean
  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int t.n
  let stddev t = sqrt (variance t)
  let min t = t.min
  let max t = t.max
end

let of_array xs =
  let acc = Acc.create () in
  Array.iter (Acc.add acc) xs;
  acc

let variance xs = Acc.variance (of_array xs)

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Describe.percentile: empty array";
  if p < 0.0 || p > 100.0 then invalid_arg "Describe.percentile: p out of [0,100]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

let summary xs =
  if Array.length xs = 0 then "n=0"
  else
    let acc = of_array xs in
    Printf.sprintf "n=%d mean=%.4f std=%.4f min=%.4f p50=%.4f max=%.4f" (Acc.n acc)
      (Acc.mean acc) (Acc.stddev acc) (Acc.min acc) (percentile xs 50.0) (Acc.max acc)
