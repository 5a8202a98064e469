(* Tests for the deep half of the linter (lib/lint: Graph, Effects, Race,
   G001–G004): QCheck properties for the SCC kernel, the effect fixpoint and
   the alias resolver, unit fixtures per G rule and for the attribute forms
   that waive file-level and interface findings, all through the same
   [Engine.run_deep_sources] entry point the CLI uses, and an integration
   check that the real repo deep-lints clean with the attributes it
   carries. *)

module Rule = Lint.Rule
module Loader = Lint.Loader
module Syntax = Lint.Syntax
module Graph = Lint.Graph
module Effects = Lint.Effects
module Rules_det = Lint.Rules_det
module Engine = Lint.Engine

let src path code = Loader.of_string ~path code
let deep sources = Engine.run_deep_sources sources

let rule_ids (d : Engine.deep) =
  List.map (fun (f : Rule.finding) -> f.Rule.rule) d.Engine.dresult.Engine.findings

let find_ids pred (d : Engine.deep) =
  List.filter pred d.Engine.dresult.Engine.findings

(* The tiny in-memory fixtures do not cross-reference their own exports, so
   the usage audit fires on them by design; rule tests that are not about
   G004 look at the rest of the report. *)
let ids_no_g004 d = List.filter (fun id -> id <> "G004") (rule_ids d)

let check_ids = Alcotest.(check (list string))

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* ----------------------------- registry ------------------------------ *)

let test_registry () =
  Alcotest.(check int) "shallow registry size" 8 (List.length Engine.rules);
  (* The built-in root table covers both kinds. *)
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (kind ^ " roots present") true
        (List.exists (fun (k, _) -> k = kind) Graph.default_roots))
    [ "determinism"; "handler" ];
  Alcotest.(check bool) "pool entry points known" true
    (List.mem "Parallel.Pool.map" Graph.pool_functions);
  Alcotest.(check bool) "Failure is interesting" true
    (List.mem "Failure" Effects.default_interesting)

let test_module_of_path () =
  let check exp libnames path =
    Alcotest.(check string) path exp (Graph.module_of_path ~libnames path)
  in
  check "Fuzzy.Analysis" [ ("core", "fuzzy") ] "lib/core/analysis.ml";
  check "Bad.Alias" [] "lib/bad/alias.ml";
  check "Repro" [] "bin/repro.ml";
  (* File named like its library collapses to the bare library id. *)
  check "Stats" [ ("stats", "stats") ] "lib/stats/stats.ml"

let test_syntax_names () =
  let lid s =
    match Longident.unflatten (String.split_on_char '.' s) with
    | Some l -> l
    | None -> Alcotest.failf "bad longident %s" s
  in
  Alcotest.(check (option string)) "Stdlib prefix stripped" (Some "Hashtbl.fold")
    (Syntax.longident_name (lid "Stdlib.Hashtbl.fold"));
  Alcotest.(check (option string)) "plain name" (Some "x") (Syntax.longident_name (lid "x"));
  let seen = ref [] in
  (match Syntax.parse_string ~path:"lib/x/a.ml" "let f t = Hashtbl.length t" with
  | Ok ast -> Syntax.iter_idents ast (fun name _ -> seen := name :: !seen)
  | Error _ -> Alcotest.fail "parse failed");
  Alcotest.(check bool) "iter_idents sees the call" true
    (List.mem "Hashtbl.length" !seen)

(* ------------------------- SCC (QCheck) ------------------------------ *)

let digraph_gen =
  QCheck2.Gen.(
    int_range 1 20 >>= fun n ->
    list_size (int_range 0 60) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    >>= fun edges -> return (n, edges))

let succ_of_edges n edges =
  let acc = Array.make n [] in
  List.iter (fun (u, v) -> acc.(u) <- v :: acc.(u)) edges;
  Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) acc

let scc_condensation_dag =
  QCheck2.Test.make ~name:"SCC condensation is a DAG (random digraphs)" ~count:300
    digraph_gen (fun (n, edges) ->
      let succ = succ_of_edges n edges in
      let r = Graph.Scc.compute ~n ~succ in
      Graph.Scc.condensation_is_dag ~n ~succ r)

let scc_reverse_topological =
  QCheck2.Test.make ~name:"SCC numbering is reverse-topological" ~count:300 digraph_gen
    (fun (n, edges) ->
      let succ = succ_of_edges n edges in
      let r = Graph.Scc.compute ~n ~succ in
      r.Graph.Scc.count >= 1
      && List.for_all (fun (u, v) -> r.Graph.Scc.comp.(u) >= r.Graph.Scc.comp.(v)) edges)

let scc_cycle_is_one_component =
  QCheck2.Test.make ~name:"a ring collapses to one component" ~count:50
    QCheck2.Gen.(int_range 2 30)
    (fun n ->
      let succ = Array.init n (fun i -> [| (i + 1) mod n |]) in
      (Graph.Scc.compute ~n ~succ).Graph.Scc.count = 1)

(* --------------------- effect fixpoint (QCheck) ---------------------- *)

(* [sweep] is a pure transfer function over the graph of a generated source
   tree: the fixpoint [infer] reaches must be idempotent under it, and one
   sweep from base effects must be monotone (never clears a bit). *)

let chain_src depth =
  (* f0 calls Random.int; f1 calls f0; ... f_depth calls f_{depth-1}. *)
  let b = Buffer.create 256 in
  Buffer.add_string b "let f0 () = Random.int 3\n";
  for i = 1 to depth do
    Buffer.add_string b (Printf.sprintf "let f%d () = f%d ()\n" i (i - 1))
  done;
  Buffer.contents b

let graph_of code = Graph.build [ src "lib/x/a.ml" code ]

let effects_fixpoint_idempotent =
  QCheck2.Test.make ~name:"effect fixpoint is a sweep fixpoint" ~count:30
    QCheck2.Gen.(int_range 1 12)
    (fun depth ->
      let g = graph_of (chain_src depth) in
      let succ = Graph.succ g in
      let fix = Effects.infer g in
      Effects.sweep g ~succ fix = fix)

let effects_sweep_monotone =
  QCheck2.Test.make ~name:"one sweep is monotone over base effects" ~count:30
    QCheck2.Gen.(int_range 1 12)
    (fun depth ->
      let g = graph_of (chain_src depth) in
      let succ = Graph.succ g in
      let base = Array.map Effects.base_effects g.Graph.nodes in
      let once = Effects.sweep g ~succ base in
      Array.for_all2 (fun b o -> b land o = b) base once)

let effects_transitive_random =
  QCheck2.Test.make ~name:"random effect reaches the top of any call chain" ~count:30
    QCheck2.Gen.(int_range 1 12)
    (fun depth ->
      let g = graph_of (chain_src depth) in
      let fix = Effects.infer g in
      match Graph.node_index g (Printf.sprintf "X.A.f%d" depth) with
      | None -> false
      | Some i -> fix.(i) land Effects.bit_random <> 0)

let test_effect_bits () =
  let all =
    Effects.bit_random lor Effects.bit_clock lor Effects.bit_hash lor Effects.bit_io
    lor Effects.bit_mutation lor Effects.bit_spawn lor Effects.bit_raises
  in
  Alcotest.(check (list string))
    "every bit has a distinct name"
    [ "random"; "clock"; "hashtbl-order"; "io"; "mutation"; "spawn"; "raises" ]
    (Effects.effect_names all);
  Alcotest.(check (list string)) "empty set" [] (Effects.effect_names 0)

let test_raise_sets () =
  (* Failure escapes f, propagates to its caller g with the origin site, and
     is stopped by g's handler in h. *)
  let g =
    graph_of
      "let f () = failwith \"x\"\nlet g () = f ()\nlet h () = try g () with Failure _ -> ()"
  in
  let rs = Effects.raise_sets g in
  let set id =
    match Graph.node_index g id with
    | Some i -> rs.(i)
    | None -> Alcotest.failf "node %s missing" id
  in
  Alcotest.(check bool) "g: Failure escapes with origin line 1" true
    (List.exists
       (fun (c, (o : Effects.origin)) -> c = "Failure" && o.Effects.oline = 1)
       (set "X.A.g"));
  Alcotest.(check bool) "h: handler stops it" true
    (not (List.exists (fun (c, _) -> c = "Failure") (set "X.A.h")))

(* ---------------------- resolver soundness (QCheck) ------------------ *)

(* Whatever the alias chain depth, [Ak.fold] must resolve back to
   [Hashtbl.fold] and fire G001 exactly once (and never the syntactic D003,
   which only sees the literal name). *)
let alias_chain_src depth =
  let b = Buffer.create 256 in
  Buffer.add_string b "module A1 = Hashtbl\n";
  for i = 2 to depth do
    Buffer.add_string b (Printf.sprintf "module A%d = A%d\n" i (i - 1))
  done;
  Buffer.add_string b
    (Printf.sprintf "let count t = A%d.fold (fun _ _ n -> n + 1) t 0\n" depth);
  Buffer.contents b

let resolver_alias_chains =
  QCheck2.Test.make ~name:"alias chains of any depth resolve to Hashtbl" ~count:20
    QCheck2.Gen.(int_range 1 8)
    (fun depth ->
      let d =
        deep
          [ src "lib/x/a.ml" (alias_chain_src depth);
            src "lib/x/a.mli" "val count : (int, int) Hashtbl.t -> int" ]
      in
      ids_no_g004 d = [ "G001" ])

let resolver_local_module =
  QCheck2.Test.make ~name:"values resolve through local structures" ~count:20
    QCheck2.Gen.(int_range 0 5)
    (fun pad ->
      (* Padding values around the definition must not confuse resolution. *)
      let decls = List.init pad (fun i -> Printf.sprintf "  let p%d = %d\n" i i) in
      let code =
        "module M = struct\n" ^ String.concat "" decls
        ^ "  let v () = Random.int 3\nend\nlet e () = M.v ()\n"
      in
      let g = Graph.build [ src "lib/x/a.ml" code ] in
      match Graph.node_index g "X.A.e" with
      | None -> false
      | Some i ->
          List.exists
            (fun (e : Graph.edge) -> e.Graph.eresolved && e.Graph.dst = "X.A.M.v")
            g.Graph.nodes.(i).Graph.nedges)

(* -------------------------- G-rule units ----------------------------- *)

let test_g001_alias () =
  let d =
    deep
      [ src "lib/x/a.ml" "module H = Hashtbl\nlet n t = H.fold (fun _ _ a -> a + 1) t 0";
        src "lib/x/a.mli" "val n : (int, int) Hashtbl.t -> int" ]
  in
  check_ids "aliased fold -> G001, not D003" [ "G001" ] (ids_no_g004 d);
  (* The literal name stays the D-rule's business: no G001 double report. *)
  let direct =
    deep
      [ src "lib/x/a.ml" "let n t = Hashtbl.fold (fun _ _ a -> a + 1) t 0";
        src "lib/x/a.mli" "val n : (int, int) Hashtbl.t -> int" ]
  in
  check_ids "direct fold stays D003 only" [ "D003" ] (ids_no_g004 direct)

let test_g001_chain () =
  (* Nondeterminism reached through a helper from an annotated root reports
     the call chain in the message. *)
  let d =
    deep
      [ src "lib/x/a.ml"
          "module R = Random\n\
           let helper () = R.int 3\n\
           let[@lint.root \"determinism\"] entry () = helper ()";
        src "lib/x/a.mli" "val helper : unit -> int\nval entry : unit -> int" ]
  in
  match find_ids (fun f -> f.Rule.rule = "G001") d with
  | [ f ] ->
      Alcotest.(check int) "flagged at the R.int site" 2 f.Rule.line;
      Alcotest.(check bool) "message names the root chain" true
        (contains ~affix:"X.A.entry" f.Rule.message
        && contains ~affix:"X.A.helper" f.Rule.message)
  | fs -> Alcotest.failf "expected one G001, got %d" (List.length fs)

let test_g002_race () =
  let d =
    deep
      [ src "lib/x/a.ml"
          "let hits = ref 0\n\
           let sweep pool xs = Parallel.Pool.map pool (fun x -> incr hits; x) xs";
        src "lib/x/a.mli" "val sweep : Parallel.Pool.t -> int array -> int array" ]
  in
  check_ids "unsynced global write in task -> G002" [ "G002" ] (ids_no_g004 d);
  let guarded =
    deep
      [ src "lib/x/a.ml"
          "let m = Mutex.create ()\n\
           let hits = ref 0\n\
           let sweep pool xs =\n\
          \  Parallel.Pool.map pool (fun x -> Mutex.lock m; incr hits; Mutex.unlock m; x) xs";
        src "lib/x/a.mli" "val sweep : Parallel.Pool.t -> int array -> int array" ]
  in
  check_ids "mutex-guarded write is clean" [] (ids_no_g004 guarded);
  let outside =
    deep
      [ src "lib/x/a.ml" "let hits = ref 0\nlet bump () = incr hits";
        src "lib/x/a.mli" "val bump : unit -> unit" ]
  in
  check_ids "write outside any task context is clean" [] (ids_no_g004 outside)

let test_g003_handler () =
  let d =
    deep
      [ src "lib/x/a.ml" "let[@lint.root \"handler\"] handle () = failwith \"boom\"";
        src "lib/x/a.mli" "val handle : unit -> unit" ]
  in
  check_ids "escaping Failure -> G003" [ "G003" ] (ids_no_g004 d);
  let caught =
    deep
      [ src "lib/x/a.ml"
          "let[@lint.root \"handler\"] handle () = try failwith \"boom\" with Failure _ -> ()";
        src "lib/x/a.mli" "val handle : unit -> unit" ]
  in
  check_ids "caught at the boundary is clean" [] (ids_no_g004 caught);
  let indirect =
    deep
      [ src "lib/x/a.ml"
          "let helper () = failwith \"boom\"\n\
           let[@lint.root \"handler\"] handle () = helper ()";
        src "lib/x/a.mli" "val helper : unit -> unit\nval handle : unit -> unit" ]
  in
  (match find_ids (fun f -> f.Rule.rule = "G003") (indirect) with
  | [ f ] -> Alcotest.(check int) "reported at the origin raise site" 1 f.Rule.line
  | fs -> Alcotest.failf "expected one G003, got %d" (List.length fs))

let test_g004_dead_export () =
  let d =
    deep
      [ src "lib/x/a.ml" "let used () = 1\nlet dead () = 2";
        src "lib/x/a.mli" "val used : unit -> int\nval dead : unit -> int";
        src "lib/y/b.ml" "let f () = X.A.used ()";
        src "lib/y/b.mli" "" ]
  in
  (match find_ids (fun f -> f.Rule.rule = "G004") d with
  | [ f ] ->
      Alcotest.(check string) "flagged in the interface" "lib/x/a.mli" f.Rule.file;
      Alcotest.(check int) "at the dead val" 2 f.Rule.line
  | fs -> Alcotest.failf "expected one G004, got %d" (List.length fs));
  (* A wholesale-escaping module (include) suppresses the audit. *)
  let escaped =
    deep
      [ src "lib/x/a.ml" "let used () = 1\nlet dead () = 2";
        src "lib/x/a.mli" "val used : unit -> int\nval dead : unit -> int";
        src "lib/y/b.ml" "include X.A\nlet f () = used ()";
        src "lib/y/b.mli" "" ]
  in
  check_ids "included module escapes the audit" []
    (List.filter (fun id -> id = "G004") (rule_ids escaped))

(* Findings without an expression to carry an attribute: D007 is waived by
   a floating attribute in the .ml, G004 by one on the val (nested
   signatures included) or a floating one in the .mli. *)
let test_waiver_forms () =
  let d =
    deep
      [ src "lib/x/a.ml" "[@@@lint.allow \"D007\"]\nlet v () = 1";
        src "lib/y/b.ml" "let dead () = 1\nmodule Inner = struct let lost () = 2 end";
        src "lib/y/b.mli"
          "val dead : unit -> int [@@lint.allow \"G004\"]\n\
           module Inner : sig\n\
          \  val lost : unit -> int [@@lint.allow \"G004\"]\n\
           end";
        src "lib/z/c.ml" "let gone () = 3";
        src "lib/z/c.mli" "[@@@lint.allow \"G004\"]\nval gone : unit -> int" ]
  in
  check_ids "nothing reported" [] (rule_ids d);
  check_ids "waived ids" [ "D007"; "G004"; "G004"; "G004" ]
    (List.map (fun (f : Rule.finding) -> f.Rule.rule) d.Engine.dresult.Engine.waived)

(* --------------------------- graph shape ----------------------------- *)

let test_graph_projections () =
  let d =
    deep
      [ src "lib/x/a.ml" "let f () = Y.B.g ()";
        src "lib/x/a.mli" "val f : unit -> unit";
        src "lib/y/b.ml" "let g () = ()";
        src "lib/y/b.mli" "val g : unit -> unit" ]
  in
  let g = d.Engine.graph in
  Alcotest.(check bool) "module graph has the X.A -> Y.B edge" true
    (List.mem ("X.A", "Y.B") (Graph.module_graph g));
  Alcotest.(check bool) "nondeterminism classifier knows Random" true
    (Rules_det.ndet_of_name "Random.int" = Some Rules_det.Nrandom);
  (* Both serializations mention every node; a smoke-level shape check. *)
  let json = Graph.to_json ~effects:(fun _ -> []) g in
  let dot = Graph.to_dot g in
  Alcotest.(check bool) "json mentions X.A.f" true (contains ~affix:"X.A.f" json);
  Alcotest.(check bool) "dot is a digraph" true
    (String.length dot >= 7 && String.sub dot 0 7 = "digraph")

(* ---------------------------- integration ---------------------------- *)

(* dune runtest executes from _build/default/test; the checkout root is
   three levels up.  The deep pass over the real tree must come back with
   zero unwaived findings — the full static determinism gate. *)
let test_repo_deep_clean () =
  let root = "../../.." in
  if not (Sys.file_exists (Filename.concat root "dune-project")) then ()
  else
    let d = Engine.run_deep ~root in
    let errs = Engine.errors d.Engine.dresult in
    if errs > 0 then
      Alcotest.failf "repo deep lint not clean: %d error(s):\n%s" errs
        (String.concat "\n"
           (List.map
              (fun (f : Rule.finding) ->
                Printf.sprintf "%s:%d %s %s" f.Rule.file f.Rule.line f.Rule.rule
                  f.Rule.message)
              d.Engine.dresult.Engine.findings))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "graph"
    [
      ( "registry",
        [
          Alcotest.test_case "deep registry" `Quick test_registry;
          Alcotest.test_case "module canonicalization" `Quick test_module_of_path;
          Alcotest.test_case "syntax name helpers" `Quick test_syntax_names;
        ] );
      ( "scc",
        qcheck [ scc_condensation_dag; scc_reverse_topological; scc_cycle_is_one_component ]
      );
      ( "effects",
        qcheck
          [ effects_fixpoint_idempotent; effects_sweep_monotone; effects_transitive_random ]
        @ [
            Alcotest.test_case "effect bit names" `Quick test_effect_bits;
            Alcotest.test_case "raise-set propagation" `Quick test_raise_sets;
          ] );
      ("resolver", qcheck [ resolver_alias_chains; resolver_local_module ]);
      ( "rules",
        [
          Alcotest.test_case "G001 aliasing" `Quick test_g001_alias;
          Alcotest.test_case "G001 root chain" `Quick test_g001_chain;
          Alcotest.test_case "G002 task race" `Quick test_g002_race;
          Alcotest.test_case "G003 handler escape" `Quick test_g003_handler;
          Alcotest.test_case "G004 dead export" `Quick test_g004_dead_export;
          Alcotest.test_case "waiver forms" `Quick test_waiver_forms;
          Alcotest.test_case "projections" `Quick test_graph_projections;
        ] );
      ("integration", [ Alcotest.test_case "repo deep-lints clean" `Quick test_repo_deep_clean ]);
    ]
