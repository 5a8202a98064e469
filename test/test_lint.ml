(* Unit tests for the determinism & hygiene linter (lib/lint): one positive
   and one negative fixture per rule, [@lint.allow] attribute waivers,
   reporter determinism, and an integration check that the real repo lints
   clean with the attributes it carries. *)

module Rule = Lint.Rule
module Loader = Lint.Loader
module Engine = Lint.Engine
module Reporter = Lint.Reporter

let src path code = Loader.of_string ~path code

let run = Engine.run_sources

let rule_ids (res : Engine.result) =
  List.map (fun (f : Rule.finding) -> f.Rule.rule) res.Engine.findings

let check_ids = Alcotest.(check (list string))

(* One positive + one negative case per rule.  Each runs the full registry so
   a fixture tripping an unintended rule fails loudly. *)

let test_d001 () =
  let bad = [ src "lib/x/a.ml" "let r () = Random.int 6"; src "lib/x/a.mli" "" ] in
  check_ids "D001 fires" [ "D001" ] (rule_ids (run bad));
  let ok =
    [ src "lib/stats/rng.ml" "let self_test () = Random.self_init ()";
      src "lib/stats/rng.mli" "" ]
  in
  check_ids "rng.ml exempt" [] (rule_ids (run ok))

let test_d002 () =
  let bad = [ src "bin/a.ml" "let t () = Unix.gettimeofday ()" ] in
  check_ids "D002 fires in bin/" [ "D002" ] (rule_ids (run bad));
  let ok = [ src "bench/a.ml" "let t () = Sys.time () +. Unix.time ()" ] in
  check_ids "bench/ exempt" [] (rule_ids (run ok));
  (* The server's deadline clock is the one blessed site outside bench/. *)
  let clock =
    [ src "lib/serve/clock.ml" "let now () = Unix.gettimeofday ()";
      src "lib/serve/clock.mli" "val now : unit -> float" ]
  in
  check_ids "lib/serve/clock.ml exempt" [] (rule_ids (run clock));
  let elsewhere =
    [ src "lib/serve/server.ml" "let t () = Unix.gettimeofday ()";
      src "lib/serve/server.mli" "val t : unit -> float" ]
  in
  check_ids "rest of lib/serve still covered" [ "D002" ]
    (rule_ids (run elsewhere))

let test_d003 () =
  let bad =
    [ src "lib/x/a.ml" "let n t = Hashtbl.fold (fun _ _ a -> a + 1) t 0";
      src "lib/x/a.mli" "" ]
  in
  check_ids "D003 fires" [ "D003" ] (rule_ids (run bad));
  (* Stdlib.-qualified calls hit the same rule. *)
  let qualified =
    [ src "lib/x/a.ml" "let f t g = Stdlib.Hashtbl.iter g t"; src "lib/x/a.mli" "" ]
  in
  check_ids "Stdlib.Hashtbl.iter caught" [ "D003" ] (rule_ids (run qualified));
  let ok =
    [ src "lib/x/a.ml" "let b t = Stats.Det.hashtbl_bindings t"; src "lib/x/a.mli" "";
      src "bin/b.ml" "let n t = Hashtbl.fold (fun _ _ a -> a + 1) t 0" ]
  in
  check_ids "helper + non-lib exempt" [] (rule_ids (run ok))

let test_d004 () =
  let bad = [ src "lib/x/a.ml" "let g f = Domain.spawn f"; src "lib/x/a.mli" "" ] in
  check_ids "D004 fires" [ "D004" ] (rule_ids (run bad));
  let ok =
    [ src "lib/parallel/pool.ml" "let g f = Domain.spawn f"; src "lib/parallel/pool.mli" "" ]
  in
  check_ids "lib/parallel exempt" [] (rule_ids (run ok))

let test_d005 () =
  let bad = [ src "lib/x/a.ml" "let s a b = a == b || a != b"; src "lib/x/a.mli" "" ] in
  check_ids "D005 fires twice" [ "D005"; "D005" ] (rule_ids (run bad));
  let ok = [ src "test/t.ml" "let s a b = a == b" ] in
  check_ids "test/ exempt" [] (rule_ids (run ok))

let test_d006 () =
  let bad = [ src "lib/x/a.ml" "let p () = print_endline \"x\""; src "lib/x/a.mli" "" ] in
  check_ids "D006 fires" [ "D006" ] (rule_ids (run bad));
  let ok =
    [ src "lib/x/a.ml" "let p () = Printf.sprintf \"x\""; src "lib/x/a.mli" "";
      src "bin/b.ml" "let p () = print_endline \"x\"" ]
  in
  check_ids "sprintf + bin/ exempt" [] (rule_ids (run ok))

let test_d007 () =
  let bad = [ src "lib/x/a.ml" "let x = 1" ] in
  check_ids "D007 fires" [ "D007" ] (rule_ids (run bad));
  let ok = [ src "lib/x/a.ml" "let x = 1"; src "lib/x/a.mli" "val x : int" ] in
  check_ids "mli present" [] (rule_ids (run ok));
  let non_lib = [ src "bin/a.ml" "let x = 1" ] in
  check_ids "bin/ exempt" [] (rule_ids (run non_lib))

let test_d008 () =
  let bad =
    [ src "lib/x/a.ml" "let f g = try g () with _ -> 0"; src "lib/x/a.mli" "" ]
  in
  check_ids "D008 fires on try" [ "D008" ] (rule_ids (run bad));
  let bad_match =
    [ src "lib/x/a.ml" "let f g = match g () with x -> x | exception _ -> 0";
      src "lib/x/a.mli" "" ]
  in
  check_ids "D008 fires on match-exception" [ "D008" ] (rule_ids (run bad_match));
  let ok =
    [ src "lib/x/a.ml" "let f g = try g () with Not_found -> 0"; src "lib/x/a.mli" "" ]
  in
  check_ids "named exception ok" [] (rule_ids (run ok))

let test_syntax_error () =
  let broken = [ src "lib/x/a.ml" "let f = ("; src "lib/x/a.mli" "" ] in
  check_ids "E000 reported" [ "E000" ] (rule_ids (run broken))

(* ------------------------------ waivers ------------------------------ *)

let test_attribute_waiver () =
  let code =
    "let n t = (Hashtbl.fold [@lint.allow \"D003\"]) (fun _ _ a -> a + 1) t 0"
  in
  let res = run [ src "lib/x/a.ml" code; src "lib/x/a.mli" "" ] in
  check_ids "waived, not reported" [] (rule_ids res);
  Alcotest.(check int) "recorded as waived" 1 (List.length res.Engine.waived)

let test_floating_attribute_waiver () =
  let code =
    "[@@@lint.allow \"D005 D006\"]\nlet s a b = a == b\nlet p () = print_newline ()"
  in
  let res = run [ src "lib/x/a.ml" code; src "lib/x/a.mli" "" ] in
  check_ids "whole file waived" [] (rule_ids res);
  Alcotest.(check int) "both waived" 2 (List.length res.Engine.waived)

let test_attribute_wrong_rule () =
  let code = "let n t = (Hashtbl.fold [@lint.allow \"D005\"]) (fun _ _ a -> a + 1) t 0" in
  let res = run [ src "lib/x/a.ml" code; src "lib/x/a.mli" "" ] in
  check_ids "wrong id does not waive" [ "D003" ] (rule_ids res)

(* ----------------------------- reporters ----------------------------- *)

let test_reporter_deterministic () =
  (* Same findings presented in a different source order must render to the
     same bytes, human and JSON alike. *)
  let a = src "lib/x/a.ml" "let r () = Random.int 6" in
  let b = src "lib/y/b.ml" "let s p q = p == q" in
  let mli p = src p "" in
  let r1 = run [ a; mli "lib/x/a.mli"; b; mli "lib/y/b.mli" ] in
  let r2 = run [ b; mli "lib/y/b.mli"; a; mli "lib/x/a.mli" ] in
  Alcotest.(check string) "human stable" (Reporter.human r1) (Reporter.human r2);
  Alcotest.(check string) "json stable" (Reporter.json r1) (Reporter.json r2)

(* ---------------------------- integration ---------------------------- *)

(* dune runtest executes from _build/default/test; the checkout root is
   three levels up.  The whole tree must lint clean — the static half of
   the determinism gate.  Exactly one shallow finding is waived: graph.ml's
   own sorted_bindings carries a point [@lint.allow "D003"] (the fold it
   wraps is the sanctioned sorted-traversal implementation the rule steers
   everyone else to). *)
let test_repo_clean () =
  let root = "../../.." in
  if not (Sys.file_exists (Filename.concat root "dune-project")) then ()
  else
    let res = Engine.run ~root in
    Alcotest.(check string)
      "repo lints clean (zero errors)"
      (Printf.sprintf "lint clean: %d files checked, 1 finding(s) waived.\n"
         res.Engine.files)
      (Reporter.human res)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "D001 randomness" `Quick test_d001;
          Alcotest.test_case "D002 wall-clock" `Quick test_d002;
          Alcotest.test_case "D003 hashtbl order" `Quick test_d003;
          Alcotest.test_case "D004 domain spawn" `Quick test_d004;
          Alcotest.test_case "D005 physical equality" `Quick test_d005;
          Alcotest.test_case "D006 stdout in lib" `Quick test_d006;
          Alcotest.test_case "D007 missing mli" `Quick test_d007;
          Alcotest.test_case "D008 wildcard handler" `Quick test_d008;
          Alcotest.test_case "E000 syntax error" `Quick test_syntax_error;
        ] );
      ( "waivers",
        [
          Alcotest.test_case "attribute" `Quick test_attribute_waiver;
          Alcotest.test_case "floating attribute" `Quick test_floating_attribute_waiver;
          Alcotest.test_case "attribute wrong rule" `Quick test_attribute_wrong_rule;
        ] );
      ( "reporting",
        [ Alcotest.test_case "byte-deterministic" `Quick test_reporter_deterministic ] );
      ( "integration",
        [ Alcotest.test_case "repo lints clean" `Quick test_repo_clean ] );
    ]
