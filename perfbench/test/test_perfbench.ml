(* Tests of the benchmark itself: its helpers (percentiles, self time
   from nested spans, failure counting, the result line) and a tiny-size
   smoke run of every workload that checks each metric BENCHMARK.json
   names is printed with its unit. *)

open Perfbench_kit

let close = Alcotest.float 1e-9

(* ---- percentiles ---- *)

let test_percentile () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  Alcotest.check close "p0" 1.0 (Kit.percentile xs 0.0);
  Alcotest.check close "p100" 4.0 (Kit.percentile xs 100.0);
  Alcotest.check close "median interpolates" 2.5 (Kit.median xs);
  Alcotest.check close "p90" 3.7 (Kit.percentile xs 90.0);
  Alcotest.check close "single sample" 7.0 (Kit.percentile [| 7.0 |] 90.0);
  Alcotest.check close "odd median" 2.0 (Kit.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (array (float 0.0))) "input untouched" [| 4.0; 1.0; 3.0; 2.0 |] xs;
  Alcotest.check_raises "empty" (Invalid_argument "Kit.percentile: empty sample") (fun () ->
      ignore (Kit.median [||]));
  Alcotest.check_raises "p out of range" (Invalid_argument "Kit.percentile: p outside [0, 100]")
    (fun () -> ignore (Kit.percentile xs 101.0))

(* ---- spans ---- *)

(* A clock that returns the scripted instants in order. *)
let scripted times =
  let q = ref times in
  fun () ->
    match !q with
    | t :: rest ->
        q := rest;
        t
    | [] -> failwith "clock exhausted"

let test_self_time () =
  (* op [0,10] { a [1,4] { b [2,3] }; c [5,9] } *)
  let r = Kit.Span.recorder ~clock:(scripted [ 0.; 1.; 2.; 3.; 4.; 5.; 9.; 10. ]) in
  Kit.Span.op r "op" (fun () ->
      Kit.Span.with_span r "a" (fun () -> Kit.Span.with_span r "b" ignore);
      Kit.Span.with_span r "c" ignore);
  let spans = Kit.Span.spans r in
  Alcotest.(check (list string)) "start order" [ "op"; "a"; "b"; "c" ]
    (List.map (fun s -> s.Kit.Span.name) spans);
  Alcotest.(check (list int)) "parents" [ -1; 0; 1; 0 ] (List.map (fun s -> s.Kit.Span.parent) spans);
  Alcotest.(check (list int)) "one op id" [ 0; 0; 0; 0 ] (List.map (fun s -> s.Kit.Span.op) spans);
  Alcotest.(check (list (pair string close)))
    "self times"
    [ ("op", 3.0); ("a", 2.0); ("b", 1.0); ("c", 4.0) ]
    (List.map (fun (s, v) -> (s.Kit.Span.name, v)) (Kit.Span.self_times spans));
  Alcotest.(check (list (pair int (list (pair string close)))))
    "by op"
    [ (0, [ ("a", 2.0); ("b", 1.0); ("c", 4.0); ("op", 3.0) ]) ]
    (Kit.Span.self_by_op spans)

let test_self_time_overlap () =
  let span id parent start stop = { Kit.Span.id; name = "s"; parent; op = 0; start; stop } in
  (* Overlapping children cover [1,8] once; a child running past its
     parent only counts up to the parent's end. *)
  let parent = span 0 (-1) 0.0 10.0 in
  let spans = [ parent; span 1 0 1.0 5.0; span 2 0 4.0 8.0; span 3 (-1) 20.0 30.0; span 4 3 25.0 35.0 ] in
  let selfs = Kit.Span.self_times spans in
  Alcotest.check close "overlap counted once" 3.0 (List.assoc parent selfs);
  Alcotest.check close "clipped" 5.0 (List.assoc (span 3 (-1) 20.0 30.0) selfs)

let test_span_closed_on_raise () =
  let r = Kit.Span.recorder ~clock:(scripted [ 0.; 1.; 2.; 3. ]) in
  (try Kit.Span.op r "op" (fun () -> Kit.Span.with_span r "x" (fun () -> failwith "boom"))
   with Failure _ -> ());
  Alcotest.(check int) "both spans kept" 2 (List.length (Kit.Span.spans r));
  Alcotest.(check (option int)) "stack unwound" None (Kit.Span.current_op r)

(* ---- failure counting ---- *)

let test_tally () =
  let t = Kit.Tally.create () in
  Kit.Tally.attempt t (fun () -> true);
  Kit.Tally.attempt t (fun () -> false);
  Kit.Tally.attempt t (fun () -> failwith "wrong answer");
  Kit.Tally.attempt t (fun () -> true);
  Alcotest.(check int) "attempted" 4 (Kit.Tally.attempted t);
  Alcotest.(check int) "failed: false and raise" 2 (Kit.Tally.failed t)

let test_result_json () =
  let m = [ { Kit.name = "x_ms"; value = 1.5; unit_ = "ms" } ] in
  Alcotest.(check string)
    "line" "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"x_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
    (Kit.result_json ~attempted:3 ~failed:1 m);
  Alcotest.check_raises "not finite" (Invalid_argument "Kit.result_json: x_ms is not finite") (fun () ->
      ignore (Kit.result_json ~attempted:1 ~failed:0 [ { (List.hd m) with Kit.value = Float.nan } ]))

(* ---- smoke run ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let find_from s ~from sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None else if String.sub s i n = sub then Some i else go (i + 1)
  in
  go from

(* The (name, unit) pairs of one metric list in BENCHMARK.json. *)
let declared section =
  let json = read_file "../../BENCHMARK.json" in
  let start = Option.get (find_from json ~from:0 (Printf.sprintf "\"%s\": [" section)) in
  let stop = Option.get (find_from json ~from:start "]") in
  let body = String.sub json start (stop - start) in
  let field key from =
    match find_from body ~from (Printf.sprintf "\"%s\": \"" key) with
    | None -> None
    | Some i ->
        let v0 = i + String.length key + 5 in
        let v1 = String.index_from body v0 '"' in
        Some (String.sub body v0 (v1 - v0), v1)
  in
  let rec go from acc =
    match field "name" from with
    | None -> List.rev acc
    | Some (name, next) ->
        let unit_, next = Option.get (field "unit" next) in
        go next ((name, unit_) :: acc)
  in
  go 0 []

let workloads () =
  let json = read_file "../../BENCHMARK.json" in
  let start = Option.get (find_from json ~from:0 "\"workloads\": [") in
  let stop = Option.get (find_from json ~from:start "]") in
  let body = String.sub json start (stop - start) in
  let rec go from acc =
    match find_from body ~from "\"name\": \"" with
    | None -> List.rev acc
    | Some i ->
        let v0 = i + 9 in
        let v1 = String.index_from body v0 '"' in
        go v1 (String.sub body v0 (v1 - v0) :: acc)
  in
  go 0 []

let run_bench ~workload ~trace =
  let out = Printf.sprintf "smoke-%s-%d.out" workload trace in
  let cmd =
    Printf.sprintf
      "../main.exe --workload %s --seed 7 --seconds 0.2 --size tiny --trace %d --repro \
       ../../bin/repro.exe > %s"
      workload trace out
  in
  Alcotest.(check int) (cmd ^ " exits 0") 0 (Sys.command cmd);
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' (read_file out)) in
  List.nth lines (List.length lines - 1)

let test_smoke workload () =
  List.iter
    (fun (trace, section) ->
      let line = run_bench ~workload ~trace in
      let has sub = find_from line ~from:0 sub <> None in
      Alcotest.(check bool) (workload ^ " correct") true (has "{\"correct\": true, \"attempted\": ");
      Alcotest.(check bool) (workload ^ " nothing failed") true (has "\"failed\": 0, ");
      List.iter
        (fun (name, unit_) ->
          match find_from line ~from:0 (Printf.sprintf "\"%s\": {\"value\": " name) with
          | None -> Alcotest.failf "%s (trace %d) does not print %s" workload trace name
          | Some i ->
              let rest = String.sub line i (String.length line - i) in
              let close = String.index rest '}' in
              Alcotest.(check bool)
                (Printf.sprintf "%s has unit %s" name unit_)
                true
                (find_from (String.sub rest 0 (close + 1)) ~from:0
                   (Printf.sprintf ", \"unit\": \"%s\"}" unit_)
                <> None))
        (declared section))
    [ (0, "end_to_end"); (1, "per_layer") ]

let () =
  Alcotest.run "perfbench"
    [
      ( "kit",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "self time of nested spans" `Quick test_self_time;
          Alcotest.test_case "self time with overlapping children" `Quick test_self_time_overlap;
          Alcotest.test_case "span closed on raise" `Quick test_span_closed_on_raise;
          Alcotest.test_case "failure counting" `Quick test_tally;
          Alcotest.test_case "result line" `Quick test_result_json;
        ] );
      ( "smoke",
        List.map (fun w -> Alcotest.test_case (w ^ " tiny") `Quick (test_smoke w)) (workloads ()) );
    ]
