module Table = Stats.Table
module Series = Stats.Series

let re_curve ?(points = 13) (c : Rtree.Cv.curve) =
  let pts = Series.downsample c.Rtree.Cv.re ~points in
  let rows =
    Array.to_list
      (Array.map
         (fun (i, re) ->
           [| string_of_int c.Rtree.Cv.k_values.(i); Table.fmt_f ~digits:3 re |])
         pts)
  in
  Table.render ~header:[| "k"; "RE_k" |] ~rows ()
  ^ Printf.sprintf "RE_k: %s  (var=%.5f)\n"
      (Series.sparkline c.Rtree.Cv.re ~width:40)
      c.Rtree.Cv.variance

let re_curves ?(points = 13) curves =
  match curves with
  | [] -> ""
  | (_, c0) :: _ ->
      let pts = Series.downsample c0.Rtree.Cv.re ~points in
      let header =
        Array.of_list ("k" :: List.map (fun (name, _) -> "RE(" ^ name ^ ")") curves)
      in
      let rows =
        Array.to_list
          (Array.map
             (fun (i, _) ->
               Array.of_list
                 (string_of_int c0.Rtree.Cv.k_values.(i)
                 :: List.map
                      (fun (_, c) -> Table.fmt_f ~digits:3 c.Rtree.Cv.re.(i))
                      curves))
             pts)
      in
      Table.render ~header ~rows ()

let spread (run : Sampling.Driver.run) ~points =
  (* Rank EIPs by first appearance so the spread plot is scale-free. *)
  let rank = Hashtbl.create 1024 in
  let series =
    Array.map
      (fun s ->
        let eip = s.Sampling.Driver.eip in
        let r =
          match Hashtbl.find_opt rank eip with
          | Some r -> r
          | None ->
              let r = Hashtbl.length rank in
              Hashtbl.add rank eip r;
              r
        in
        float_of_int r)
      run.Sampling.Driver.samples
  in
  let cpis =
    Array.map
      (fun s -> s.Sampling.Driver.cycles /. float_of_int s.Sampling.Driver.instrs)
      run.Sampling.Driver.samples
  in
  Printf.sprintf
    "unique EIPs sampled: %d over %d samples\nEIP rank over time: %s\nCPI over time:      %s\nCPI: %s\n"
    (Hashtbl.length rank)
    (Array.length run.Sampling.Driver.samples)
    (Series.sparkline series ~width:points)
    (Series.sparkline cpis ~width:points)
    (Stats.Describe.summary cpis)

let breakdown_series (eipv : Sampling.Eipv.t) ~points =
  let ivs = eipv.Sampling.Eipv.intervals in
  let comp f = Array.map (fun iv -> f iv.Sampling.Eipv.breakdown) ivs in
  let work = comp (fun b -> b.March.Breakdown.work)
  and fe = comp (fun b -> b.March.Breakdown.fe)
  and exe = comp (fun b -> b.March.Breakdown.exe)
  and other = comp (fun b -> b.March.Breakdown.other) in
  let idx = Series.downsample work ~points in
  let rows =
    Array.to_list
      (Array.map
         (fun (i, w) ->
           let f = fe.(i) and e = exe.(i) and o = other.(i) in
           [|
             string_of_int i;
             Table.fmt_f ~digits:3 w;
             Table.fmt_f ~digits:3 f;
             Table.fmt_f ~digits:3 e;
             Table.fmt_f ~digits:3 o;
             Table.fmt_f ~digits:3 (w +. f +. e +. o);
             Table.fmt_pct (e /. Float.max 1e-9 (w +. f +. e +. o));
           |])
         idx)
  in
  Table.render
    ~header:[| "interval"; "WORK"; "FE"; "EXE"; "OTHER"; "CPI"; "EXE%" |]
    ~rows ()
  ^ Printf.sprintf "EXE component over time: %s\n" (Series.sparkline exe ~width:40)

let analysis_row (a : Analysis.t) =
  [|
    a.Analysis.name;
    Table.fmt_f ~digits:5 a.Analysis.cpi_variance;
    Table.fmt_f ~digits:3 a.Analysis.re_kopt;
    string_of_int a.Analysis.kopt;
    Quadrant.to_string a.Analysis.quadrant;
  |]

let analysis_table results =
  Table.render
    ~header:[| "benchmark"; "CPI var"; "RE_kopt"; "k_opt"; "quadrant" |]
    ~rows:(List.map analysis_row results)
    ()

let quadrant_counts results =
  let count q =
    List.length (List.filter (fun a -> a.Analysis.quadrant = q) results)
  in
  Printf.sprintf "Q-I: %d  Q-II: %d  Q-III: %d  Q-IV: %d  (total %d)\n"
    (count Quadrant.Q1) (count Quadrant.Q2) (count Quadrant.Q3) (count Quadrant.Q4)
    (List.length results)

let techniques_table entries =
  Table.render
    ~header:[| "technique"; "mean CPI estimation error" |]
    ~rows:
      (List.map
         (fun (t, e) -> [| Techniques.to_string t; Table.fmt_pct e |])
         entries)
    ()

let comparison_table (results : Compare.t list) =
  Table.render
    ~header:[| "benchmark"; "tree RE"; "tree k"; "kmeans RE"; "kmeans k"; "improvement" |]
    ~rows:
      (List.map
         (fun (r : Compare.t) ->
           [|
             r.Compare.name;
             Table.fmt_f ~digits:3 r.Compare.tree_re;
             string_of_int r.Compare.tree_k;
             Table.fmt_f ~digits:3 r.Compare.kmeans_re;
             string_of_int r.Compare.kmeans_k;
             Table.fmt_pct r.Compare.improvement;
           |])
         results)
    ()

let machine_table (rows : Robustness.machine_row list) =
  Table.render
    ~header:[| "benchmark"; "machine"; "CPI"; "CPI var"; "RE_kopt"; "quadrant" |]
    ~rows:
      (List.map
         (fun (r : Robustness.machine_row) ->
           [|
             r.Robustness.workload;
             r.Robustness.machine;
             Table.fmt_f ~digits:3 r.Robustness.cpi;
             Table.fmt_f ~digits:5 r.Robustness.cpi_variance;
             Table.fmt_f ~digits:3 r.Robustness.re_kopt;
             Quadrant.to_string r.Robustness.quadrant;
           |])
         rows)
    ()

let interval_table (rows : Robustness.interval_row list) =
  Table.render
    ~header:[| "benchmark"; "interval"; "samples/ivl"; "CPI var"; "RE_kopt"; "quadrant" |]
    ~rows:
      (List.map
         (fun (r : Robustness.interval_row) ->
           [|
             r.Robustness.name;
             (match r.Robustness.divisor with
             | 1 -> "100M-equivalent"
             | 2 -> "50M-equivalent"
             | 10 -> "10M-equivalent"
             | d -> Printf.sprintf "1/%d" d);
             string_of_int r.Robustness.samples_per_interval;
             Table.fmt_f ~digits:5 r.Robustness.cpi_variance;
             Table.fmt_f ~digits:3 r.Robustness.re_kopt;
             Quadrant.to_string r.Robustness.quadrant;
           |])
         rows)
    ()

(* The single source of truth for what "analyzing a workload" prints:
   `repro analyze` and the serve Analyze RPC both emit exactly this
   string, which is what lets the test suite compare them with cmp. *)
let analyze_report (a : Analysis.t) =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Format.asprintf "%a@." Analysis.pp_summary a);
  Buffer.add_string b (re_curve a.Analysis.curve);
  (* Which EIPs carry the CPI signal, if any. *)
  let ds = Sampling.Eipv.dataset a.Analysis.eipv in
  let tree = Rtree.Tree.build ~max_leaves:a.Analysis.kopt ds in
  (match Rtree.Tree.feature_importance tree with
  | [] -> Buffer.add_string b "no EIP carries predictive signal (single chamber)\n"
  | imp ->
      Buffer.add_string b "most CPI-predictive EIPs:\n";
      List.iteri
        (fun i (f, share) ->
          if i < 5 then
            let eip = a.Analysis.eipv.Sampling.Eipv.eip_of_feature.(f) in
            Buffer.add_string b
              (Printf.sprintf "  EIP 0x%x (region %d): %s of explained variance\n"
                 eip
                 (Workload.Code_map.eip_region eip)
                 (Table.fmt_pct share)))
        imp);
  Buffer.add_string b
    (Printf.sprintf "recommended sampling technique: %s\n"
       (Techniques.to_string (Techniques.recommend a.Analysis.quadrant)));
  Buffer.contents b
