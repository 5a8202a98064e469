(* Walker alias method: O(n) setup, O(1) draws. *)
type categorical = { prob : float array; alias : int array }

let categorical weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Dist.categorical: empty weights";
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then invalid_arg "Dist.categorical: non-positive total weight";
  Array.iter (fun w -> if w < 0.0 then invalid_arg "Dist.categorical: negative weight") weights;
  let scaled = Array.map (fun w -> w *. float_of_int n /. total) weights in
  let prob = Array.make n 0.0 and alias = Array.make n 0 in
  let small = Queue.create () and large = Queue.create () in
  Array.iteri (fun i p -> Queue.add i (if p < 1.0 then small else large)) scaled;
  while (not (Queue.is_empty small)) && not (Queue.is_empty large) do
    let s = Queue.pop small and l = Queue.pop large in
    prob.(s) <- scaled.(s);
    alias.(s) <- l;
    scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.0;
    Queue.add l (if scaled.(l) < 1.0 then small else large)
  done;
  let flush q = Queue.iter (fun i -> prob.(i) <- 1.0) q in
  flush small;
  flush large;
  { prob; alias }

let categorical_draw t rng =
  let n = Array.length t.prob in
  let i = Rng.int rng n in
  if Rng.float rng 1.0 < t.prob.(i) then i else t.alias.(i)
