module Rng = Stats.Rng

type technique = Uniform | Random | Phase_based | Stratified

let all = [ Uniform; Random; Phase_based; Stratified ]

let to_string = function
  | Uniform -> "uniform"
  | Random -> "random"
  | Phase_based -> "phase_based"
  | Stratified -> "stratified"

type estimate = {
  technique : technique;
  budget : int;
  picked : int list;
  estimated_cpi : float;
  true_cpi : float;
  rel_error : float;
}

let true_mean_cpi (eipv : Sampling.Eipv.t) =
  (* Instruction-weighted mean over all intervals. *)
  let cycles = ref 0.0 and instrs = ref 0 in
  Array.iter
    (fun iv ->
      cycles := !cycles +. iv.Sampling.Eipv.cycles;
      instrs := !instrs + iv.Sampling.Eipv.instrs)
    eipv.Sampling.Eipv.intervals;
  !cycles /. float_of_int (max 1 !instrs)

let mean_of_picked cpis picked =
  match picked with
  | [] -> 0.0
  | _ ->
      List.fold_left (fun acc i -> acc +. cpis.(i)) 0.0 picked
      /. float_of_int (List.length picked)

(* Weighted estimate: each pick represents [weight] intervals. *)
let weighted_estimate weights_and_cpis =
  let total_w = List.fold_left (fun a (w, _) -> a +. w) 0.0 weights_and_cpis in
  if total_w <= 0.0 then 0.0
  else
    List.fold_left (fun a (w, c) -> a +. (w *. c)) 0.0 weights_and_cpis /. total_w

let cluster_members (model : Kmeans.model) =
  let members = Array.make model.Kmeans.k [] in
  Array.iteri (fun i c -> members.(c) <- i :: members.(c)) model.Kmeans.assignment;
  members

let nearest_to_centroid (model : Kmeans.model) points members cluster =
  let c = model.Kmeans.centroids.(cluster) in
  let norm = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 c in
  let best = ref None in
  List.iter
    (fun i ->
      let d = Stats.Sparse_vec.sq_dist_dense points.(i) c ~norm2_dense:norm in
      match !best with
      | Some (_, bd) when bd <= d -> ()
      | Some _ | None -> best := Some (i, d))
    members;
  match !best with Some (i, _) -> Some i | None -> None

let estimate technique rng (eipv : Sampling.Eipv.t) ~budget =
  let cpis = Sampling.Eipv.cpis eipv in
  let m = Array.length cpis in
  let budget = max 1 (min budget m) in
  let points = Sampling.Eipv.points eipv in
  let n_features = eipv.Sampling.Eipv.n_features in
  let picked, estimated_cpi =
    match technique with
    | Uniform ->
        let stride = m / budget in
        let picked = List.init budget (fun i -> min (m - 1) (i * stride)) in
        (picked, mean_of_picked cpis picked)
    | Random ->
        let perm = Rng.permutation rng m in
        let picked = List.init budget (fun i -> perm.(i)) in
        (picked, mean_of_picked cpis picked)
    | Phase_based ->
        let model = Kmeans.fit rng ~k:budget ~n_features points in
        let members = cluster_members model in
        let picks_and_weights =
          Array.to_list members
          |> List.filter_map (fun ms ->
                 match
                   nearest_to_centroid model points ms
                     (match ms with
                     | i :: _ -> model.Kmeans.assignment.(i)
                     | [] -> 0)
                 with
                 | Some pick -> Some (float_of_int (List.length ms), pick)
                 | None -> None)
        in
        let picked = List.map snd picks_and_weights in
        (picked, weighted_estimate (List.map (fun (w, p) -> (w, cpis.(p))) picks_and_weights))
    | Stratified ->
        (* Cluster with half the budget, then spend the other half on the
           clusters with the largest CPI dispersion: each cluster's
           estimate is the mean of its picks, weighted by cluster size. *)
        let k = max 1 (budget / 2) in
        let model = Kmeans.fit rng ~k ~n_features points in
        let members = cluster_members model in
        let disp =
          Array.map
            (fun ms ->
              let acc = Stats.Describe.Acc.create () in
              List.iter (fun i -> Stats.Describe.Acc.add acc cpis.(i)) ms;
              Stats.Describe.Acc.stddev acc *. float_of_int (List.length ms))
            members
        in
        let extra = budget - k in
        let total_disp = Array.fold_left ( +. ) 0.0 disp in
        let picks_per_cluster =
          Array.mapi
            (fun c ms ->
              let bonus =
                if total_disp <= 0.0 then 0
                else int_of_float (Float.round (float_of_int extra *. disp.(c) /. total_disp))
              in
              min (List.length ms) (1 + bonus))
            members
        in
        let all_picks = ref [] in
        let weighted = ref [] in
        Array.iteri
          (fun c ms ->
            let n = picks_per_cluster.(c) in
            if n > 0 && ms <> [] then begin
              let arr = Array.of_list ms in
              Rng.shuffle rng arr;
              let picks = Array.to_list (Array.sub arr 0 (min n (Array.length arr))) in
              all_picks := picks @ !all_picks;
              weighted :=
                (float_of_int (List.length ms), mean_of_picked cpis picks) :: !weighted
            end)
          members;
        (!all_picks, weighted_estimate !weighted)
  in
  let true_cpi = true_mean_cpi eipv in
  {
    technique;
    budget;
    picked;
    estimated_cpi;
    true_cpi;
    rel_error = (if true_cpi = 0.0 then 0.0 else Float.abs (estimated_cpi -. true_cpi) /. true_cpi);
  }

let evaluate ?(trials = 9) rng eipv ~budget =
  List.map
    (fun t ->
      let total = ref 0.0 in
      for _ = 1 to trials do
        total := !total +. (estimate t rng eipv ~budget).rel_error
      done;
      (t, !total /. float_of_int trials))
    all

let recommend = function
  | Quadrant.Q1 -> Uniform
  | Quadrant.Q2 -> Uniform
  | Quadrant.Q3 -> Random
  | Quadrant.Q4 -> Phase_based

let rationale = function
  | Quadrant.Q1 ->
      "CPI variance is tiny, so even a few uniform samples capture mean CPI; \
       phase analysis adds cost without benefit"
  | Quadrant.Q2 ->
      "phases exist but the CPI swing is small: uniform sampling is as \
       accurate as phase-based sampling and simpler"
  | Quadrant.Q3 ->
      "EIPVs cannot identify when CPI changes, so representative-sample \
       methods mislead; only statistical (random) sampling bounds the error"
  | Quadrant.Q4 ->
      "few dominant phases explain the large CPI variance: one representative \
       per phase (phase-based/stratified sampling) is cheapest and accurate"
