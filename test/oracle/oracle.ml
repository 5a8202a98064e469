module Sv = Stats.Sparse_vec
module Dataset = Rtree.Dataset

module Tree = struct
  type node = Rtree.Tree.node =
    | Leaf of { mean : float; n : int }
    | Split of {
        feature : int;
        threshold : float;
        rank : int;
        mean : float;
        n : int;
        left : node;
        right : node;
      }

  let min_leaf = 1
  let min_gain = 1e-12

  let sse n sum sumsq =
    if n = 0 then 0.0
    else
      let v = sumsq -. (sum *. sum /. float_of_int n) in
      Float.max 0.0 v

  type candidate = { cfeature : int; cthreshold : float; cgain : float }

  type mnode = {
    rows : int array;
    mn : int;
    msum : float;
    msumsq : float;
    mutable split : (int * float * int * mnode * mnode) option;
        (* feature, threshold, rank, left, right *)
  }

  let make_mnode (data : Dataset.t) rows =
    let sum = ref 0.0 and sumsq = ref 0.0 in
    Array.iter
      (fun r ->
        let y = data.Dataset.y.(r) in
        sum := !sum +. y;
        sumsq := !sumsq +. (y *. y))
      rows;
    { rows; mn = Array.length rows; msum = !sum; msumsq = !sumsq; split = None }

  (* Exhaustive variance-minimising split search for one node, as in the
     paper's Section 4.1, made O(total nnz log nnz) by handling the
     implicit zero entries of each sparse column as a precomputed "zeros
     bucket": for a candidate threshold t the left side is (all zero
     rows) + (the non-zero rows with value <= t), and its y-statistics
     follow from the node totals by subtraction. *)
  let best_split (data : Dataset.t) node =
    let n = node.mn and sum = node.msum and sumsq = node.msumsq in
    let node_sse = sse n sum sumsq in
    if node_sse <= 0.0 || n < 2 * min_leaf then None
    else begin
      let per_feature : (int, (float * float) list ref) Hashtbl.t = Hashtbl.create 64 in
      Array.iter
        (fun r ->
          let y = data.Dataset.y.(r) in
          Sv.iter
            (fun f x ->
              match Hashtbl.find_opt per_feature f with
              | Some l -> l := (x, y) :: !l
              | None -> Hashtbl.add per_feature f (ref [ (x, y) ]))
            data.Dataset.rows.(r))
        node.rows;
      let best = ref None in
      let consider feature threshold gain =
        match !best with
        | Some b when b.cgain >= gain -> ()
        | _ -> best := Some { cfeature = feature; cthreshold = threshold; cgain = gain }
      in
      List.iter
        (fun (f, l) ->
          let entries = Array.of_list !l in
          Array.sort (fun (a, _) (b, _) -> compare a b) entries;
          let nnz = Array.length entries in
          let n_zero = n - nnz in
          let nz_sum = Array.fold_left (fun a (_, y) -> a +. y) 0.0 entries in
          let nz_sumsq = Array.fold_left (fun a (_, y) -> a +. (y *. y)) 0.0 entries in
          (* Running left-side statistics, seeded with the zeros bucket. *)
          let ln = ref n_zero
          and lsum = ref (sum -. nz_sum)
          and lsumsq = ref (sumsq -. nz_sumsq) in
          let try_threshold t =
            let rn = n - !ln in
            if !ln >= min_leaf && rn >= min_leaf then begin
              let split_sse = sse !ln !lsum !lsumsq +. sse rn (sum -. !lsum) (sumsq -. !lsumsq) in
              consider f t (node_sse -. split_sse)
            end
          in
          (* Threshold 0: zeros on the left, all non-zeros on the right. *)
          if n_zero > 0 && nnz > 0 then try_threshold 0.0;
          for i = 0 to nnz - 1 do
            let x, y = entries.(i) in
            incr ln;
            lsum := !lsum +. y;
            lsumsq := !lsumsq +. (y *. y);
            (* A threshold is admissible at a boundary between distinct
               values; the last value offers no split. *)
            if i < nnz - 1 && fst entries.(i + 1) > x then try_threshold x
          done)
        (Stats.Det.hashtbl_bindings per_feature);
      !best
    end

  (* Best-first growth: the frontier is a list pushed left-then-right and
     scanned for the first strictly-largest gain, so equal gains resolve
     by frontier position. *)
  let build ~max_leaves (data : Dataset.t) =
    let root = make_mnode data (Array.init (Dataset.n data) Fun.id) in
    let frontier = ref [] in
    let push node =
      match best_split data node with
      | Some c when c.cgain > min_gain -> frontier := !frontier @ [ (node, c) ]
      | Some _ | None -> ()
    in
    push root;
    let rank = ref 0 in
    while !rank + 1 < max_leaves && !frontier <> [] do
      let best, _ =
        List.fold_left
          (fun ((_, bc) as acc) ((_, c) as e) ->
            match bc with Some b when b.cgain >= c.cgain -> acc | _ -> (Some e, Some c))
          (None, None) (List.rev !frontier)
      in
      match best with
      | None -> frontier := []
      | Some ((node, c) as chosen) ->
          frontier := List.filter (fun e -> e != chosen) !frontier;
          let goes_left r = Sv.get data.Dataset.rows.(r) c.cfeature <= c.cthreshold in
          let side p = make_mnode data (Array.of_list (List.filter p (Array.to_list node.rows))) in
          let l = side goes_left and r = side (fun r -> not (goes_left r)) in
          incr rank;
          node.split <- Some (c.cfeature, c.cthreshold, !rank, l, r);
          push l;
          push r
    done;
    let rec freeze m =
      let mean = if m.mn = 0 then 0.0 else m.msum /. float_of_int m.mn in
      match m.split with
      | None -> Leaf { mean; n = m.mn }
      | Some (feature, threshold, rank, l, r) ->
          Split { feature; threshold; rank; mean; n = m.mn; left = freeze l; right = freeze r }
    in
    freeze root

  let predict_k node ~k x =
    let rec go = function
      | Leaf { mean; _ } -> mean
      | Split { rank; mean; feature; threshold; left; right; _ } ->
          if rank > k - 1 then mean
          else if Sv.get x feature <= threshold then go left
          else go right
    in
    go node
end

module Cv = struct
  let relative_error_curve ?(folds = 10) ?(kmax = 50) rng (data : Dataset.t) =
    let n = Dataset.n data in
    let variance = Dataset.y_variance data in
    let e_sums = Array.make kmax 0.0 in
    Array.iter
      (fun { Stats.Folds.train; test } ->
        let sums = Array.make kmax 0.0 in
        let tree = Tree.build ~max_leaves:kmax (Dataset.restrict data train) in
        Array.iter
          (fun i ->
            let row = data.Dataset.rows.(i) and y = data.Dataset.y.(i) in
            for ki = 0 to kmax - 1 do
              let err = y -. Tree.predict_k tree ~k:(ki + 1) row in
              sums.(ki) <- sums.(ki) +. (err *. err)
            done)
          test;
        Array.iteri (fun ki s -> e_sums.(ki) <- e_sums.(ki) +. s) sums)
      (Stats.Folds.make rng ~n ~k:(max 2 (min folds n)));
    let e = Array.map (fun s -> s /. float_of_int n) e_sums in
    let re = if variance < 1e-12 then Array.make kmax 0.0 else Array.map (fun ek -> ek /. variance) e in
    { Rtree.Cv.k_values = Array.init kmax (fun i -> i + 1); e; re; variance }
end

(* The sample-line decoder Sampling.Trace_io had before it read by
   position: Scanf per line, region fields by splitting on spaces.  The
   shipped decoder must never accept what this one rejects, and must
   agree with it bit for bit on what both accept. *)
module Trace_io = struct
  module Driver = Sampling.Driver

  let version = 2

  let fail_fmt fmt = Printf.ksprintf failwith fmt

  let of_string ~label:path content =
    if String.length content = 0 then fail_fmt "Trace_io.load: %s: empty file" path;
    let file_version =
      try Scanf.sscanf content "fuzzytrace %d" (fun v -> v)
      with Scanf.Scan_failure _ | Failure _ | End_of_file ->
        fail_fmt "Trace_io.load: %s: not a fuzzytrace archive" path
    in
    let body =
      (* v1 predates the trailer: nothing to validate against, so the body
         is the whole file.  Everything newer must carry a valid trailer. *)
      if file_version = 1 then content
      else
        match Stats.Checksum.unseal ~tag:"fuzzytrace" content with
        | Ok body -> body
        | Error reason -> fail_fmt "Trace_io.load: %s: %s" path reason
    in
    let lines = String.split_on_char '\n' body in
    let header, sample_lines =
      match lines with
      | h :: rest -> (h, Array.of_list rest)
      | [] -> fail_fmt "Trace_io.load: %s: no header" path
    in
    let workload, machine, period, ctx, io, os, total_instrs, total_cycles, n =
      try
        Scanf.sscanf header "fuzzytrace %d %s %s %d %d %d %d %d %h %d"
          (fun v workload machine period ctx io os ti tc n ->
            if v <> 1 && v <> version then
              fail_fmt "Trace_io.load: version %d, expected 1 or %d" v version;
            (workload, machine, period, ctx, io, os, ti, tc, n))
      with
      | Scanf.Scan_failure m | Failure m -> fail_fmt "Trace_io.load: bad header: %s" m
      | End_of_file ->
          (* A v1 archive cut off inside the header line: no trailer to
             catch it first, so the scan itself runs out of input. *)
          fail_fmt "Trace_io.load: %s: truncated header" path
    in
    (* The split of a '\n'-terminated body ends with one empty element. *)
    if n < 0 || Array.length sample_lines < n + 1 then
      fail_fmt "Trace_io.load: %d sample lines, header declares %d"
        (Array.length sample_lines - 1)
        n;
    let samples =
      Array.init n (fun i ->
          let line = sample_lines.(i) in
          try
            Scanf.sscanf line "%d %d %d %h %h %h %h %h %d %d %n"
              (fun eip tid instrs cycles work fe exe other os_instrs nregions pos ->
                let rest = String.sub line pos (String.length line - pos) in
                let fields =
                  List.filter (fun s -> s <> "") (String.split_on_char ' ' rest)
                in
                if List.length fields <> 2 * nregions then
                  fail_fmt "Trace_io.load: sample %d region arity" i;
                let arr =
                  try Array.of_list (List.map int_of_string fields)
                  with Failure _ -> fail_fmt "Trace_io.load: sample %d: bad region field" i
                in
                let region_instrs =
                  Array.init nregions (fun k -> (arr.(2 * k), arr.((2 * k) + 1)))
                in
                {
                  Driver.eip;
                  tid;
                  instrs;
                  cycles;
                  breakdown = { March.Breakdown.work; fe; exe; other };
                  os_instrs;
                  region_instrs;
                })
          with
          | Scanf.Scan_failure m -> fail_fmt "Trace_io.load: sample %d: %s" i m
          | End_of_file -> fail_fmt "Trace_io.load: sample %d: truncated line" i)
    in
    {
      Driver.workload;
      machine;
      samples;
      period;
      context_switches = ctx;
      io_blocks = io;
      os_instr_total = os;
      total_instrs;
      total_cycles;
    }
end
