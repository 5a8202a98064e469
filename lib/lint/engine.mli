(** The rule engine: load sources, run the registry, apply waivers. *)

val rules : Rule.t list
(** The shallow registry, D001–D008, in id order. *)

type result = {
  findings : Rule.finding list;
      (** unwaived findings, sorted — includes [E000] syntax errors *)
  waived : Rule.finding list;
  files : int;
}

val errors : result -> int
(** Every unwaived finding is an error. *)

val run_sources : Rule.source list -> result
(** The D-rules alone over in-memory sources, for the rule tests. *)

type deep = {
  dresult : result;  (** D-rule and G-rule findings through the same waivers *)
  graph : Graph.t;
  effects : int array;  (** {!Effects.infer} output, indexed like the graph *)
}

val run_deep_sources : ?libnames:(string * string) list -> Rule.source list -> deep
(** Pure core of [repro lint].  The D-rules run on everything except
    [examples/]; the graph (and hence G001–G004 and the usage audit) sees
    the full set. *)

val run_deep : root:string -> deep
(** {!run_deep_sources} over [lib bin bench test examples] under [root]
    (all reported paths are relative to it), excluding
    [test/lint_fixtures], with library names from [lib/*/dune] for
    cross-library canonicalization. *)
