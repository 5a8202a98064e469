let rules = Rules_det.all @ Rules_hygiene.all

(* Walked under the lint root.  The fixture tree exists to violate every
   rule; it is golden-tested separately. *)
let dirs = [ "lib"; "bin"; "bench"; "test" ]
let exclude = [ "test/lint_fixtures" ]

type result = {
  findings : Rule.finding list;
  waived : Rule.finding list;
  files : int;
}

let errors res = List.length res.findings

(* Apply the attribute waivers; parse errors are never waivable. *)
let finish sources raw =
  let kept, waived = Waivers.apply sources raw in
  let parse_errors =
    List.filter_map (fun (s : Rule.source) -> s.Rule.parse_error) sources
  in
  {
    findings = List.sort Rule.compare_finding (parse_errors @ kept);
    waived = List.sort Rule.compare_finding waived;
    files = List.length sources;
  }

let check_all sources = List.concat_map (fun r -> r.Rule.check sources) rules
let run_sources sources = finish sources (check_all sources)
let run ~root = run_sources (Loader.load ~root ~dirs ~exclude)

(* ------------------------------------------------------------------ *)
(* The deep pass: shallow rules plus the graph-based G-rules, over a wider
   source set (examples/ joins, so the usage audit sees every caller). *)

type deep = { dresult : result; graph : Graph.t; effects : int array }

let run_deep_sources ?(libnames = []) sources =
  (* Shallow rules keep their historical scope: everything but examples/. *)
  let shallow_sources =
    List.filter
      (fun (s : Rule.source) -> not (Rule.under "examples" s.Rule.path))
      sources
  in
  let graph = Graph.build ~libnames sources in
  let effects = Effects.infer graph in
  let raw =
    check_all shallow_sources @ Effects.g001 graph @ Race.g002 graph
    @ Effects.g003 graph @ Graph.g004 graph
  in
  { dresult = finish sources raw; graph; effects }

let run_deep ~root =
  run_deep_sources ~libnames:(Loader.libraries ~root)
    (Loader.load ~root ~dirs:(dirs @ [ "examples" ]) ~exclude)
