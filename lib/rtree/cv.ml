type curve = {
  k_values : int array;
  e : float array;
  re : float array;
  variance : float;
}

let near_zero_variance = 1e-12

(* The fold partition is drawn from [rng] before any fan-out, and each
   fold is a pure task returning its own partial error sums; the merge
   below runs in fold order, so the curve is bit-identical whether the
   folds execute serially or on a pool. *)
let relative_error_curve ?pool ?(folds = 10) ?(kmax = 50) rng (data : Dataset.t) =
  (* Runs on pool workers under --jobs > 1; the [task] root keeps the race
     checker pointed at it even if the call-site shape changes. *)
  let[@lint.root "task"] fold_sums { Stats.Folds.train; test } =
    let sums = Array.make kmax 0.0 in
    let tree = Tree.build ~max_leaves:kmax (Dataset.restrict data train) in
    (* One descent per test row covers every k (Tree.sweep_k); the sums
       accumulate per k in test-row order, exactly as the oracle's per-k
       walk does, so the partials are bit-identical. *)
    Array.iter
      (fun i ->
        let row = data.Dataset.rows.(i) and y = data.Dataset.y.(i) in
        Tree.sweep_k tree ~kmax row ~f:(fun k pred ->
            let err = y -. pred in
            sums.(k - 1) <- sums.(k - 1) +. (err *. err)))
      test;
    sums
  in
  let n = Dataset.n data in
  let folds = max 2 (min folds n) in
  let variance = Dataset.y_variance data in
  let fold_parts = Stats.Folds.make rng ~n ~k:folds in
  let partials =
    match pool with
    | Some p -> Parallel.Pool.map p fold_sums fold_parts
    | None -> Array.map fold_sums fold_parts
  in
  let e_sums = Array.make kmax 0.0 in
  Array.iter
    (fun part -> Array.iteri (fun ki s -> e_sums.(ki) <- e_sums.(ki) +. s) part)
    partials;
  let e = Array.map (fun s -> s /. float_of_int n) e_sums in
  let re =
    if variance < near_zero_variance then Array.make kmax 0.0
    else Array.map (fun ek -> ek /. variance) e
  in
  { k_values = Array.init kmax (fun i -> i + 1); e; re; variance }

let training_error_curve ?(kmax = 50) (data : Dataset.t) =
  let n = Dataset.n data in
  let variance = Dataset.y_variance data in
  let tree = Tree.build ~max_leaves:kmax data in
  let sse = Tree.training_sse_curve tree data ~kmax in
  let e = Array.map (fun s -> s /. float_of_int n) sse in
  let re =
    if variance < near_zero_variance then Array.make kmax 0.0
    else Array.map (fun ek -> ek /. variance) e
  in
  { k_values = Array.init kmax (fun i -> i + 1); e; re; variance }

let re_final c = c.re.(Array.length c.re - 1)

let kopt c ~tol =
  let final = re_final c in
  let len = Array.length c.re in
  let rec go i =
    if i >= len then len
    else if c.re.(i) -. final <= tol then i + 1
    else go (i + 1)
  in
  (* Clamp: if the curve never comes within [tol] of its final value
     (possible with a negative tol), answer kmax rather than kmax+1. *)
  min (go 0) len

let re_at c k =
  if k < 1 || k > Array.length c.re then invalid_arg "Cv.re_at: k out of range";
  c.re.(k - 1)

let re_min c = Array.fold_left Float.min infinity c.re

let k_at_min c =
  let best = ref 0 in
  Array.iteri (fun i r -> if r < c.re.(!best) then best := i) c.re;
  !best + 1
