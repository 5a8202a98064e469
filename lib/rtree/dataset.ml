type t = {
  rows : Stats.Sparse_vec.t array;
  y : float array;
  n_features : int;
}

let make ~rows ~y =
  let n = Array.length rows in
  if n = 0 then invalid_arg "Dataset.make: empty data set";
  if Array.length y <> n then invalid_arg "Dataset.make: rows/y length mismatch";
  let max_idx = Array.fold_left (fun acc r -> max acc (Stats.Sparse_vec.max_index r)) (-1) rows in
  { rows; y; n_features = max 1 (max_idx + 1) }

let n t = Array.length t.rows

let y_variance t = Stats.Describe.variance t.y

let restrict t indices =
  make ~rows:(Array.map (fun i -> t.rows.(i)) indices) ~y:(Array.map (fun i -> t.y.(i)) indices)

let total_nnz t =
  Array.fold_left (fun acc r -> acc + Stats.Sparse_vec.nnz r) 0 t.rows
