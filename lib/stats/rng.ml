(* The SplitMix64 state is 8 bytes read and written in place with
   [Bytes.get_int64_ne]/[set_int64_ne], so it never lives in a boxed
   [int64] and a draw allocates nothing but a float result that crosses
   the module boundary (DESIGN.md §12a). *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

(* SplitMix64 output function: mix the advanced state through two
   xor-shift-multiply rounds. *)
let[@inline] next_raw t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (next_raw t)

(* SplitMix64 finaliser, used to mix label bytes into a seed. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  Int64.logxor z (Int64.shift_right_logical z 33)

let split_label seed label =
  (* FNV-1a over the label bytes, folded into the master seed and mixed.
     Independent of evaluation order, so parallel workloads derived from
     the same master seed get the same stream no matter how they are
     scheduled. *)
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    label;
  of_state (mix64 (Int64.add (Int64.mul (Int64.of_int seed) golden_gamma) !h))

let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (next_raw t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let r = ref (bits t) in
  let v = ref (!r mod bound) in
  while !r - !v + (bound - 1) < 0 do
    r := bits t;
    v := !r mod bound
  done;
  !v

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

(* 53 uniform bits scaled into [0, 1). *)
let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (next_raw t) 11) /. 9007199254740992.0 (* 2^53 *)

let float t bound = bound *. unit_float t

let bool t = Int64.logand (next_raw t) 1L = 1L

(* [float t 1.0 < p]: multiplying by 1.0 is exact, so the draw is the
   same without it. *)
let bernoulli t p = unit_float t < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a
