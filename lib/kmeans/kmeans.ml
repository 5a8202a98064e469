module Sv = Stats.Sparse_vec

type model = {
  centroids : float array array;
  assignment : int array;
  inertia : float;
  k : int;
}

let centroid_norm2 c = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 c

let nearest centroids norms point =
  let best = ref 0 and best_d = ref infinity in
  Array.iteri
    (fun j c ->
      let d = Sv.sq_dist_dense point c ~norm2_dense:norms.(j) in
      if d < !best_d then begin
        best := j;
        best_d := d
      end)
    centroids;
  (!best, !best_d)

(* k-means++ seeding: first centroid uniform, then points sampled with
   probability proportional to their squared distance to the closest
   already-chosen centroid. *)
let seed_plus_plus rng ~k ~n_features points =
  let n = Array.length points in
  let to_dense p =
    let c = Array.make n_features 0.0 in
    Sv.add_into_dense p c;
    c
  in
  let centroids = Array.make k [||] in
  centroids.(0) <- to_dense points.(Stats.Rng.int rng n);
  let d2 = Array.make n infinity in
  for j = 1 to k - 1 do
    let prev = centroids.(j - 1) in
    let prev_norm = centroid_norm2 prev in
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      let d = Sv.sq_dist_dense points.(i) prev ~norm2_dense:prev_norm in
      if d < d2.(i) then d2.(i) <- d;
      total := !total +. d2.(i)
    done;
    let pick =
      if !total <= 0.0 then Stats.Rng.int rng n
      else begin
        let target = Stats.Rng.float rng !total in
        let acc = ref 0.0 and chosen = ref (n - 1) in
        (try
           for i = 0 to n - 1 do
             acc := !acc +. d2.(i);
             if !acc >= target then begin
               chosen := i;
               raise Exit
             end
           done
         with Exit -> ());
        !chosen
      end
    in
    centroids.(j) <- to_dense points.(pick)
  done;
  centroids

let lloyd rng ~max_iter ~k ~n_features points =
  let n = Array.length points in
  let centroids = seed_plus_plus rng ~k ~n_features points in
  let assignment = Array.make n 0 in
  let dists = Array.make n 0.0 in
  let changed = ref true and iter = ref 0 in
  while !changed && !iter < max_iter do
    changed := false;
    incr iter;
    let norms = Array.map centroid_norm2 centroids in
    for i = 0 to n - 1 do
      let j, d = nearest centroids norms points.(i) in
      dists.(i) <- d;
      if j <> assignment.(i) then begin
        assignment.(i) <- j;
        changed := true
      end
    done;
    (* Recompute centroids as cluster means. *)
    let counts = Array.make k 0 in
    let sums = Array.init k (fun _ -> Array.make n_features 0.0) in
    for i = 0 to n - 1 do
      let j = assignment.(i) in
      counts.(j) <- counts.(j) + 1;
      Sv.add_into_dense points.(i) sums.(j)
    done;
    for j = 0 to k - 1 do
      if counts.(j) = 0 then begin
        (* Re-seed an empty cluster with the worst-fitted point. *)
        let worst = ref 0 in
        for i = 1 to n - 1 do
          if dists.(i) > dists.(!worst) then worst := i
        done;
        let c = Array.make n_features 0.0 in
        Sv.add_into_dense points.(!worst) c;
        centroids.(j) <- c;
        dists.(!worst) <- 0.0;
        changed := true
      end
      else begin
        let inv = 1.0 /. float_of_int counts.(j) in
        centroids.(j) <- Array.map (fun s -> s *. inv) sums.(j)
      end
    done
  done;
  let norms = Array.map centroid_norm2 centroids in
  let inertia = ref 0.0 in
  for i = 0 to n - 1 do
    let j, d = nearest centroids norms points.(i) in
    assignment.(i) <- j;
    inertia := !inertia +. d
  done;
  { centroids; assignment; inertia = !inertia; k }

let fit ?(max_iter = 50) ?(restarts = 3) rng ~k ~n_features points =
  let n = Array.length points in
  if n = 0 then invalid_arg "Kmeans.fit: no points";
  if k < 1 then invalid_arg "Kmeans.fit: k must be >= 1";
  let k = min k n in
  let best = ref None in
  for _ = 1 to max 1 restarts do
    let m = lloyd rng ~max_iter ~k ~n_features points in
    match !best with
    | Some b when b.inertia <= m.inertia -> ()
    | Some _ | None -> best := Some m
  done;
  match !best with Some m -> m | None -> assert false

let cluster_means ~k ~assignment ~cpi =
  let sums = Array.make k 0.0 and counts = Array.make k 0 in
  Array.iteri
    (fun i j ->
      sums.(j) <- sums.(j) +. cpi.(i);
      counts.(j) <- counts.(j) + 1)
    assignment;
  Array.init k (fun j -> if counts.(j) = 0 then 0.0 else sums.(j) /. float_of_int counts.(j))

let cv_relative_error ?(folds = 10) ?(max_iter = 50) rng ~k ~n_features points ~cpi =
  let n = Array.length points in
  if Array.length cpi <> n then invalid_arg "Kmeans.cv_relative_error: cpi length mismatch";
  let folds = max 2 (min folds n) in
  let parts = Stats.Folds.make rng ~n ~k:folds in
  let sse = ref 0.0 in
  Array.iter
    (fun { Stats.Folds.train; test } ->
      let train_pts = Array.map (fun i -> points.(i)) train in
      let train_cpi = Array.map (fun i -> cpi.(i)) train in
      let m = fit ~max_iter ~restarts:1 rng ~k ~n_features train_pts in
      let means = cluster_means ~k:m.k ~assignment:m.assignment ~cpi:train_cpi in
      let norms = Array.map centroid_norm2 m.centroids in
      Array.iter
        (fun i ->
          let j, _ = nearest m.centroids norms points.(i) in
          let e = cpi.(i) -. means.(j) in
          sse := !sse +. (e *. e))
        test)
    parts;
  let mse = !sse /. float_of_int n in
  let var = Stats.Describe.variance cpi in
  if var < 1e-12 then 0.0 else mse /. var

let best_k_cv ?(kmax = 50) ?(folds = 10) rng ~n_features points ~cpi =
  (* Dense scan for small k where the curve moves fastest, then geometric
     steps, mirroring the paper's "best k under 50" selection at bounded
     cost. *)
  let candidates =
    List.filter (fun k -> k <= kmax) [ 1; 2; 3; 4; 5; 6; 8; 10; 12; 16; 20; 26; 32; 40; 50 ]
  in
  List.fold_left
    (fun (bk, bre) k ->
      let re = cv_relative_error ~folds rng ~k ~n_features points ~cpi in
      if re < bre then (k, re) else (bk, bre))
    (1, infinity) candidates
