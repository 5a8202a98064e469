type t = { idx : int array; v : float array }

let empty = { idx = [||]; v = [||] }

let of_assoc pairs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (i, x) ->
      if i < 0 then invalid_arg "Sparse_vec.of_assoc: negative index";
      let cur = try Hashtbl.find tbl i with Not_found -> 0.0 in
      Hashtbl.replace tbl i (cur +. x))
    pairs;
  let entries = List.filter (fun (_, x) -> x <> 0.0) (Det.hashtbl_bindings tbl) in
  let n = List.length entries in
  let idx = Array.make n 0 and v = Array.make n 0.0 in
  List.iteri
    (fun k (i, x) ->
      idx.(k) <- i;
      v.(k) <- x)
    entries;
  { idx; v }

let of_sorted idx v =
  let n = Array.length idx in
  if Array.length v <> n then invalid_arg "Sparse_vec.of_sorted: lengths differ";
  for k = 0 to n - 1 do
    if (k = 0 && idx.(0) < 0) || (k > 0 && idx.(k) <= idx.(k - 1)) || v.(k) = 0.0 then
      invalid_arg "Sparse_vec.of_sorted: indices not increasing or a zero value"
  done;
  { idx; v }

let nnz t = Array.length t.idx

let get t i =
  (* Iterative binary search over the sorted index array: this is the
     single hottest lookup in the tree grower (row routing at every
     split) and in prediction, so it avoids call overhead and bounds
     checks on the probe. *)
  let idx = t.idx in
  let lo = ref 0 and hi = ref (Array.length idx - 1) in
  let res = ref 0.0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let m = Array.unsafe_get idx mid in
    if m = i then begin
      res := Array.unsafe_get t.v mid;
      lo := 1;
      hi := 0
    end
    else if m < i then lo := mid + 1
    else hi := mid - 1
  done;
  !res

let max_index t = if nnz t = 0 then -1 else t.idx.(nnz t - 1)

let iter f t =
  for k = 0 to Array.length t.idx - 1 do
    f t.idx.(k) t.v.(k)
  done

let sum t = Array.fold_left ( +. ) 0.0 t.v
let norm2 t = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 t.v

let dot_dense t dense =
  let n = Array.length dense in
  let acc = ref 0.0 in
  iter (fun i x -> if i < n then acc := !acc +. (x *. dense.(i))) t;
  !acc

let add_into_dense t dense =
  let n = Array.length dense in
  iter (fun i x -> if i < n then dense.(i) <- dense.(i) +. x) t

let sq_dist_dense t dense ~norm2_dense =
  (* ||v||^2 - 2 v.c + ||c||^2, correcting coordinates where v is nonzero:
     exact and O(nnz). *)
  let d = norm2 t -. (2.0 *. dot_dense t dense) +. norm2_dense in
  Float.max 0.0 d


