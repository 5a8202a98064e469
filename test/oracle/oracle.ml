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

(* Stats.Checksum.unseal as it was before it checked a range in place:
   it copies the body out of the blob. *)
module Checksum = struct
  let unseal ~tag blob =
    let len = String.length blob in
    if len = 0 then Error "empty file"
    else if blob.[len - 1] <> '\n' then Error "truncated (no final newline)"
    else
      let start =
        match String.rindex_from_opt blob (len - 2) '\n' with Some i -> i + 1 | None -> 0
      in
      let trailer = String.sub blob start (len - 1 - start) in
      let body = String.sub blob 0 start in
      let prefix = tag ^ "-end" in
      let declared =
        if not (String.starts_with ~prefix trailer) then None
        else
          let n = String.length prefix in
          try
            Scanf.sscanf (String.sub trailer n (String.length trailer - n)) " %d %d%!"
              (fun l s -> Some (l, s))
          with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
      in
      match declared with
      | None -> Error (Printf.sprintf "missing %s trailer (truncated or foreign)" prefix)
      | Some (declared_len, _) when declared_len <> start ->
          Error
            (Printf.sprintf "truncated: %d body bytes, trailer declares %d" start declared_len)
      | Some (_, declared_sum) ->
          let sum = Stats.Checksum.adler32 body in
          if sum <> declared_sum then
            Error
              (Printf.sprintf "checksum mismatch: %#x, trailer declares %#x" sum declared_sum)
          else Ok body
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
        match Checksum.unseal ~tag:"fuzzytrace" content with
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

  (* The position decoder that replaced the Scanf one above, as it was
     before it read a range in place and converted %h tokens from their
     digits: the body is copied out, and every float token is copied and
     converted by float_of_string. *)
  (* A sample-line token outside the grammar. *)
  exception Bad_token

  let is_digit = function '0' .. '9' -> true | _ -> false

  (* The bytes %h prints.  float_of_string also takes '_', blanks after
     the 'p' and upper case, where Scanf's "%h" stops short of them. *)
  let is_float_byte = function
    | '0' .. '9' | 'a' .. 'f' | 'x' | 'p' | '.' | '+' | '-' | 'i' | 'n' | 't' | 'y' -> true
    | _ -> false

  (* The token must end in a digit: "0x1." and "0x" convert, but Scanf's
     "%h" rejects them before a separator. *)
  let float_of_token tok =
    let n = String.length tok in
    let hex_at i = n > i + 2 && tok.[i] = '0' && tok.[i + 1] = 'x' in
    let ok =
      match tok with
      | "nan" | "-nan" | "infinity" | "-infinity" -> true
      | _ -> (hex_at 0 || (hex_at 1 && tok.[0] = '-')) && is_digit tok.[n - 1]
    in
    if ok then float_of_string_opt tok else None

  let by_position ~label:path content =
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
        match Checksum.unseal ~tag:"fuzzytrace" content with
        | Ok body -> body
        | Error reason -> fail_fmt "Trace_io.load: %s: %s" path reason
    in
    let len = String.length body in
    let header_end = Option.value (String.index_opt body '\n') ~default:len in
    let workload, machine, period, ctx, io, os, total_instrs, total_cycles, n =
      try
        Scanf.sscanf (String.sub body 0 header_end) "fuzzytrace %d %s %s %d %d %d %d %d %h %d"
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
    (* Too few complete lines.  The count is the newlines after the
       header's own, as a line split of the body would report it. *)
    let short () =
      let lines = ref (-1) in
      for i = header_end to len - 1 do
        if String.unsafe_get body i = '\n' then incr lines
      done;
      fail_fmt "Trace_io.load: %d sample lines, header declares %d" !lines n
    in
    (* Every sample line takes at least its '\n', so a count past the
       bytes left is short before any line is read. *)
    if n < 0 || n >= len - header_end then short ();
    let pos = ref (header_end + 1) in
    (* A token ends at a separator; the body ending first cuts the line
       short. *)
    let ends_token p =
      if p >= len then short ()
      else match String.unsafe_get body p with ' ' | '\n' -> true | _ -> false
    in
    let int_token () =
      let neg = !pos < len && String.unsafe_get body !pos = '-' in
      let start = if neg then !pos + 1 else !pos in
      let p = ref start in
      (* [acc] is minus the digits read so far, so min_int fits. *)
      let acc = ref 0 in
      while !p < len && is_digit (String.unsafe_get body !p) do
        let d = Char.code (String.unsafe_get body !p) - Char.code '0' in
        if !acc < min_int / 10 || !acc * 10 < min_int + d then raise Bad_token;
        acc := (!acc * 10) - d;
        incr p
      done;
      if not (ends_token !p) || !p = start || ((not neg) && !acc = min_int) then
        raise Bad_token;
      pos := !p;
      if neg then !acc else - !acc
    in
    let sep c =
      if !pos >= len then short ();
      if String.unsafe_get body !pos <> c then raise Bad_token;
      incr pos
    in
    let next_int () =
      sep ' ';
      int_token ()
    in
    let next_float () =
      sep ' ';
      let start = !pos in
      let p = ref start in
      while !p < len && is_float_byte (String.unsafe_get body !p) do
        incr p
      done;
      if not (ends_token !p) then raise Bad_token;
      pos := !p;
      match float_of_token (String.sub body start (!p - start)) with
      | Some f -> f
      | None -> raise Bad_token
    in
    let sample i =
      let in_regions = ref false in
      match
        let eip = int_token () in
        let tid = next_int () in
        let instrs = next_int () in
        let cycles = next_float () in
        let work = next_float () in
        let fe = next_float () in
        let exe = next_float () in
        let other = next_float () in
        let os_instrs = next_int () in
        in_regions := true;
        let nregions = next_int () in
        (* A count past the bytes left cannot be met: refuse it before
           allocating for it. *)
        if nregions < 0 || nregions > len - !pos then raise Bad_token;
        let region_instrs = Array.make nregions (0, 0) in
        for k = 0 to nregions - 1 do
          let region = next_int () in
          region_instrs.(k) <- (region, next_int ())
        done;
        sep '\n';
        {
          Driver.eip;
          tid;
          instrs;
          cycles;
          breakdown = { March.Breakdown.work; fe; exe; other };
          os_instrs;
          region_instrs;
        }
      with
      | s -> s
      | exception Bad_token ->
          fail_fmt "Trace_io.load: sample %d: bad %s" i
            (if !in_regions then "region field" else "field")
    in
    let samples = Array.init n sample in
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

(* Stats.Rng as it was before its state moved into 8 unboxed bytes: a
   boxed [int64] field and a recursive rejection loop.  The shipped
   generator must draw the same stream, op for op. *)
module Rng = struct
  type t = { mutable state : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L

  let create seed = { state = Int64.of_int seed }

  (* SplitMix64 output function: mix the advanced state through two
     xor-shift-multiply rounds. *)
  let next_raw t =
    t.state <- Int64.add t.state golden_gamma;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let split t =
    let s = next_raw t in
    { state = s }

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
    { state = mix64 (Int64.add (Int64.mul (Int64.of_int seed) golden_gamma) !h) }

  let bits t = Int64.to_int (Int64.shift_right_logical (next_raw t) 2)

  let int t bound =
    if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
    (* Rejection sampling to avoid modulo bias. *)
    let rec go () =
      let r = bits t in
      let v = r mod bound in
      if r - v + (bound - 1) < 0 then go () else v
    in
    go ()

  let int_in t lo hi =
    if hi < lo then invalid_arg "Rng.int_in: empty range";
    lo + int t (hi - lo + 1)

  let float t bound =
    let r = Int64.to_float (Int64.shift_right_logical (next_raw t) 11) in
    bound *. (r /. 9007199254740992.0 (* 2^53 *))

  let bool t = Int64.logand (next_raw t) 1L = 1L

  let bernoulli t p = float t 1.0 < p

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
end

(* Dbengine.Btree as it was before its nodes moved into int arrays: a
   record per node and a binary search inside each.  The shipped tree
   must visit the same addresses and return the same values. *)
module Btree = struct
  type node = { id : int; keys : int array; kind : kind }

  and kind = Leaf of { values : int array } | Internal of { children : node array }

  type t = {
    fanout : int;
    node_bytes : int;
    base_addr : int;
    mutable root : node;
    mutable next_id : int;
    mutable n_keys : int;
  }

  let new_node t keys kind =
    let id = t.next_id in
    t.next_id <- t.next_id + 1;
    { id; keys; kind }

  let create ?(fanout = 32) ~node_bytes ~base_addr () =
    if fanout < 4 then invalid_arg "Btree.create: fanout must be >= 4";
    if node_bytes <= 0 then invalid_arg "Btree.create: node_bytes must be positive";
    let t =
      { fanout; node_bytes; base_addr; root = { id = 0; keys = [||]; kind = Leaf { values = [||] } };
        next_id = 0; n_keys = 0 }
    in
    t.root <- new_node t [||] (Leaf { values = [||] });
    t

  let addr_of t node = t.base_addr + (node.id * t.node_bytes)

  let bulk_load t pairs =
    if t.n_keys <> 0 then invalid_arg "Btree.bulk_load: tree not empty";
    let n = Array.length pairs in
    if n = 0 then ()
    else begin
      for i = 1 to n - 1 do
        if fst pairs.(i) <= fst pairs.(i - 1) then
          invalid_arg "Btree.bulk_load: keys must be strictly increasing"
      done;
      let per_leaf = max 2 (t.fanout * 3 / 4) in
      (* Build the leaf level. *)
      let leaves = ref [] in
      let i = ref 0 in
      while !i < n do
        let len = min per_leaf (n - !i) in
        let keys = Array.init len (fun j -> fst pairs.(!i + j)) in
        let values = Array.init len (fun j -> snd pairs.(!i + j)) in
        leaves := new_node t keys (Leaf { values }) :: !leaves;
        i := !i + len
      done;
      let level = ref (Array.of_list (List.rev !leaves)) in
      (* Build internal levels until a single root remains.  Separator i of
         an internal node is the smallest key reachable under child i+1 —
         for internal children that is the minimum of the leftmost leaf, not
         the child's own first separator. *)
      let rec min_key node =
        match node.kind with
        | Leaf _ -> node.keys.(0)
        | Internal { children } -> min_key children.(0)
      in
      while Array.length !level > 1 do
        let children = !level in
        let m = Array.length children in
        let per_node = max 2 (t.fanout * 3 / 4) in
        let parents = ref [] in
        let j = ref 0 in
        while !j < m do
          (* Never leave a single orphan child for the last group: shrink the
             current group by one instead (per_node >= 3 keeps len >= 2). *)
          let remaining = m - !j in
          let len =
            if remaining <= per_node then remaining
            else if remaining - per_node = 1 then per_node - 1
            else per_node
          in
          let kids = Array.sub children !j len in
          let keys = Array.init (len - 1) (fun x -> min_key kids.(x + 1)) in
          parents := new_node t keys (Internal { children = kids }) :: !parents;
          j := !j + len
        done;
        level := Array.of_list (List.rev !parents)
      done;
      t.root <- !level.(0);
      t.n_keys <- n
    end

  (* Index of the child to descend into: first separator > key determines
     the branch. *)
  let child_index (keys : int array) key =
    let lo = ref 0 and hi = ref (Array.length keys) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if key < keys.(mid) then hi := mid else lo := mid + 1
    done;
    !lo

  (* Slot of [key] in a leaf's sorted keys, or -1. *)
  let leaf_slot (keys : int array) key =
    let lo = ref 0 and hi = ref (Array.length keys - 1) and found = ref (-1) in
    while !found < 0 && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let k = keys.(mid) in
      if k = key then found := mid else if k < key then lo := mid + 1 else hi := mid - 1
    done;
    !found

  (* The one root-to-leaf descent: calls [visit] on each node's address,
     root first, and hands the leaf's keys and values to [at_leaf]. *)
  let rec descend t node key ~visit ~at_leaf =
    visit (addr_of t node);
    match node.kind with
    | Leaf { values } -> at_leaf node.keys values key
    | Internal { children } ->
        descend t children.(child_index node.keys key) key ~visit ~at_leaf

  let lookup t key ~visit =
    descend t t.root key ~visit ~at_leaf:(fun keys values key ->
        let i = leaf_slot keys key in
        if i >= 0 then values.(i) else -1)

  let find t key =
    descend t t.root key ~visit:ignore ~at_leaf:(fun keys values key ->
        let i = leaf_slot keys key in
        if i >= 0 then Some values.(i) else None)

  let height t =
    let rec go node = match node.kind with Leaf _ -> 1 | Internal { children } -> 1 + go children.(0) in
    go t.root

  let n_keys t = t.n_keys
  let footprint_bytes t = t.next_id * t.node_bytes

  let check_invariants t =
    let fail fmt = Printf.ksprintf failwith fmt in
    let rec check node depth =
      let sorted a =
        let ok = ref true in
        for i = 1 to Array.length a - 1 do
          if a.(i) <= a.(i - 1) then ok := false
        done;
        !ok
      in
      if not (sorted node.keys) then fail "Btree: node %d keys not strictly sorted" node.id;
      match node.kind with
      | Leaf { values } ->
          if Array.length values <> Array.length node.keys then
            fail "Btree: leaf %d keys/values arity mismatch" node.id;
          if Array.length node.keys > t.fanout then fail "Btree: leaf %d overfull" node.id;
          (depth, Array.length node.keys)
      | Internal { children } ->
          if Array.length children <> Array.length node.keys + 1 then
            fail "Btree: internal %d children arity mismatch" node.id;
          if Array.length children > t.fanout + 1 then fail "Btree: internal %d overfull" node.id;
          let depths = Array.map (fun c -> fst (check c (depth + 1))) children in
          Array.iter
            (fun d -> if d <> depths.(0) then fail "Btree: unbalanced under node %d" node.id)
            depths;
          (* Separator consistency: every key in child i+1 is >= keys.(i),
             every key in child i is < keys.(i). *)
          Array.iteri
            (fun i sep ->
              let rec min_key n =
                match n.kind with
                | Leaf _ -> if Array.length n.keys = 0 then sep else n.keys.(0)
                | Internal { children } -> min_key children.(0)
              in
              let rec max_key n =
                match n.kind with
                | Leaf _ ->
                    if Array.length n.keys = 0 then pred sep else n.keys.(Array.length n.keys - 1)
                | Internal { children } -> max_key children.(Array.length children - 1)
              in
              if max_key children.(i) >= sep then
                fail "Btree: separator %d violated on the left of node %d" sep node.id;
              if min_key children.(i + 1) < sep then
                fail "Btree: separator %d violated on the right of node %d" sep node.id)
            node.keys;
          (depth, Array.length node.keys)
    in
    ignore (check t.root 0);
    (* Count keys. *)
    let rec count node =
      match node.kind with
      | Leaf _ -> Array.length node.keys
      | Internal { children } -> Array.fold_left (fun acc c -> acc + count c) 0 children
    in
    let c = count t.root in
    if c <> t.n_keys then fail "Btree: key count %d does not match recorded %d" c t.n_keys
end


(* Store's read path as it was before it read entries in place:
   [Checksum.unseal] copies the body, [Cas.unframe] the key and the
   payload, and [Codec.decode_entry] the archive, which
   [Trace_io.by_position] unseals into one more copy.  The shipped path
   must accept exactly what this accepts and return the same run and
   curve bits. *)
module Cas = struct
  let unframe content =
    let ( let* ) r f = Result.bind r f in
    let* body = Checksum.unseal ~tag:"fuzzystore" content in
    let* format, key_len, payload_len, header_len =
      try
        Scanf.sscanf body "fuzzystore %d %d %d\n%n" (fun f k p n -> Ok (f, k, p, n))
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> Error "bad header"
    in
    let* () =
      if format <> Store.Version.entry_format then
        Error (Printf.sprintf "entry format %d, expected %d" format Store.Version.entry_format)
      else Ok ()
    in
    let* () =
      if String.length body <> header_len + key_len + 1 + payload_len + 1 then
        Error "section lengths disagree with body length"
      else Ok ()
    in
    let key = String.sub body header_len key_len in
    let payload = String.sub body (header_len + key_len + 1) payload_len in
    Ok (key, payload)
end

module Codec = struct
  let decode_entry payload =
    (* Cursor over [payload]; the embedded trace archive is length-prefixed
       raw bytes, so everything reads by explicit position, not by line
       splitting. *)
    let pos = ref 0 in
    let fail reason = raise (Failure ("store payload: " ^ reason)) in
    let next_line () =
      match String.index_from_opt payload !pos '\n' with
      | None -> fail "truncated line"
      | Some nl ->
          let line = String.sub payload !pos (nl - !pos) in
          pos := nl + 1;
          line
    in
    match
      let magic = next_line () in
      if magic <> Printf.sprintf "fuzzyresult %d" Store.Version.entry_format then
        fail "bad payload magic";
      let n, variance =
        try Scanf.sscanf (next_line ()) "curve %d %h%!" (fun n v -> (n, v))
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> fail "bad curve header"
      in
      if n < 0 || n > 100_000 then fail "implausible curve length";
      let k_values = Array.make n 0 in
      let e = Array.make n 0.0 in
      let re = Array.make n 0.0 in
      for i = 0 to n - 1 do
        try
          Scanf.sscanf (next_line ()) "%d %h %h%!" (fun k ev rv ->
              k_values.(i) <- k;
              e.(i) <- ev;
              re.(i) <- rv)
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> fail "bad curve point"
      done;
      let archive_len =
        try Scanf.sscanf (next_line ()) "run %d%!" (fun l -> l)
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> fail "bad run header"
      in
      if archive_len < 0 || !pos + archive_len <> String.length payload then
        fail "run length disagrees with payload size";
      let archive = String.sub payload !pos archive_len in
      let run = Trace_io.by_position ~label:"<store entry>" archive in
      (run, { Rtree.Cv.k_values; e; re; variance })
    with
    | result -> Ok result
    | exception Failure reason -> Error reason
    | exception Scanf.Scan_failure reason -> Error reason
    | exception Invalid_argument reason -> Error reason
end

(* Sampling.Eipv's interner and interval builder as they were before
   their int table and dense counts: polymorphic [Hashtbl]s, the
   per-interval histogram through two sorted binding lists, and a fresh
   breakdown record per sample.  The shipped builder must seal the same
   intervals, bit for bit. *)
module Eipv = struct
  type interner = {
    feature_of_eip : (int, int) Hashtbl.t;
    mutable eips : int list;
    mutable next : int;
  }

  let new_interner () = { feature_of_eip = Hashtbl.create 1024; eips = []; next = 0 }

  let intern it eip =
    match Hashtbl.find_opt it.feature_of_eip eip with
    | Some f -> f
    | None ->
        let f = it.next in
        it.next <- it.next + 1;
        Hashtbl.add it.feature_of_eip eip f;
        it.eips <- eip :: it.eips;
        f

  (* The incremental interval builder: one sample at a time, sealing an
     interval every [samples_per_interval] feeds.  The batch constructors
     below are thin wrappers over it, so the streaming subsystem
     ([Online.Pipeline]) and the offline pipeline build identical intervals
     by construction. *)
  module Builder = struct
    type builder = {
      it : interner;
      samples_per_interval : int;
      mutable counts : (int, int) Hashtbl.t;
      mutable instrs : int;
      mutable cycles : float;
      mutable bd : March.Breakdown.t;
      mutable filled : int;  (** samples in the current partial interval *)
      mutable fed : int;  (** total samples ever fed *)
      mutable n_sealed : int;
    }

    type t = builder

    let with_interner it ~samples_per_interval =
      if samples_per_interval <= 0 then
        invalid_arg "Eipv.Builder.create: samples_per_interval must be positive";
      {
        it;
        samples_per_interval;
        counts = Hashtbl.create 64;
        instrs = 0;
        cycles = 0.0;
        bd = March.Breakdown.zero;
        filled = 0;
        fed = 0;
        n_sealed = 0;
      }

    let create ~samples_per_interval = with_interner (new_interner ()) ~samples_per_interval

    let feed b (smp : Sampling.Driver.sample) =
      let f = intern b.it smp.Sampling.Driver.eip in
      (match Hashtbl.find_opt b.counts f with
      | Some c -> Hashtbl.replace b.counts f (c + 1)
      | None -> Hashtbl.add b.counts f 1);
      b.instrs <- b.instrs + smp.Sampling.Driver.instrs;
      b.cycles <- b.cycles +. smp.Sampling.Driver.cycles;
      b.bd <- March.Breakdown.add b.bd smp.Sampling.Driver.breakdown;
      b.filled <- b.filled + 1;
      b.fed <- b.fed + 1;
      if b.filled < b.samples_per_interval then None
      else begin
        let iv =
          {
            Sampling.Eipv.eipv =
              Sv.of_assoc
                (List.map
                   (fun (i, c) -> (i, float_of_int c))
                   (Stats.Det.hashtbl_bindings b.counts));
            cpi = b.cycles /. float_of_int (max 1 b.instrs);
            instrs = b.instrs;
            cycles = b.cycles;
            breakdown = March.Breakdown.per_instr b.bd ~instrs:(max 1 b.instrs);
            first_sample = b.fed - b.samples_per_interval;
          }
        in
        b.counts <- Hashtbl.create 64;
        b.instrs <- 0;
        b.cycles <- 0.0;
        b.bd <- March.Breakdown.zero;
        b.filled <- 0;
        b.n_sealed <- b.n_sealed + 1;
        Some iv
      end

    let sealed b = b.n_sealed
    let pending_samples b = b.filled
    let n_features b = b.it.next
  end

  let intervals_of_samples it (samples : Sampling.Driver.sample array) ~samples_per_interval =
    let b = Builder.with_interner it ~samples_per_interval in
    (* Trailing samples that do not fill an interval are dropped before
       feeding, so they intern no features (matching the documented batch
       contract). *)
    let n = Array.length samples / samples_per_interval * samples_per_interval in
    let out = ref [] in
    for i = 0 to n - 1 do
      match Builder.feed b samples.(i) with Some iv -> out := iv :: !out | None -> ()
    done;
    Array.of_list (List.rev !out)

  let build_from_samples (samples : Sampling.Driver.sample array) ~samples_per_interval =
    if samples_per_interval <= 0 then
      invalid_arg "Eipv.build: samples_per_interval must be positive";
    if Array.length samples / samples_per_interval = 0 then
      invalid_arg "Eipv.build: not enough samples for one interval";
    let it = new_interner () in
    let intervals = intervals_of_samples it samples ~samples_per_interval in
    {
      Sampling.Eipv.intervals;
      eip_of_feature = Array.of_list (List.rev it.eips);
      n_features = it.next;
      samples_per_interval;
    }

  let build (run : Sampling.Driver.run) ~samples_per_interval =
    build_from_samples run.Sampling.Driver.samples ~samples_per_interval

  let samples_by_thread (run : Sampling.Driver.run) =
    let by_tid = Hashtbl.create 16 in
    Array.iter
      (fun s ->
        let l =
          match Hashtbl.find_opt by_tid s.Sampling.Driver.tid with
          | Some l -> l
          | None ->
              let l = ref [] in
              Hashtbl.add by_tid s.Sampling.Driver.tid l;
              l
        in
        l := s :: !l)
      run.Sampling.Driver.samples;
    Stats.Det.hashtbl_bindings by_tid
    |> List.map (fun (tid, l) -> (tid, Array.of_list (List.rev !l)))

  let build_thread_separated (run : Sampling.Driver.run) ~samples_per_interval =
    if samples_per_interval <= 0 then
      invalid_arg "Eipv.build_thread_separated: samples_per_interval must be positive";
    let it = new_interner () in
    let groups = samples_by_thread run in
    let intervals =
      List.concat_map
        (fun (_, samples) ->
          Array.to_list (intervals_of_samples it samples ~samples_per_interval))
        groups
      |> Array.of_list
    in
    if Array.length intervals = 0 then
      invalid_arg "Eipv.build_thread_separated: not enough samples for one interval";
    {
      Sampling.Eipv.intervals;
      eip_of_feature = Array.of_list (List.rev it.eips);
      n_features = it.next;
      samples_per_interval;
    }
end
