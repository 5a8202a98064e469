(* D005-D008: hygiene rules.  Less absolute than D001-D004, but each one
   closes a channel through which nondeterminism or silent breakage creeps
   in (pointer identity, interleaved stdout, hidden interfaces, swallowed
   exceptions). *)

let d005 =
  Syntax.ident_rule ~id:"D005" ~title:"physical equality"
    ~doc:
      "== / != compare addresses, not values: the answer can depend on \
       allocation and sharing decisions the optimizer is free to change.  Use \
       structural (=) or an explicit key.  test/ is exempt — identity-cache \
       assertions are exactly about sharing."
    ~scope:(fun path ->
      Rule.in_lib path || Rule.under "bin" path || Rule.under "bench" path)
    ~hit:(fun name ->
      match name with
      | "==" | "!=" ->
          Some (name ^ ": physical equality; compare structurally or by key")
      | _ -> None)

let stdout_printers =
  [
    "Printf.printf"; "print_string"; "print_endline"; "print_newline";
    "print_char"; "print_int"; "print_float"; "Format.printf";
    "Format.print_string";
  ]

let d006 =
  Syntax.ident_rule ~id:"D006" ~title:"direct stdout printing in lib/"
    ~doc:
      "Library code must return or sink its output (Core.Report renderers \
       return strings; instrumentation goes to Dbengine.Sink), so the CLI owns \
       stdout and byte-comparison of runs stays meaningful.  A print buried in \
       lib/ interleaves unpredictably with streamed traces."
    ~scope:Rule.in_lib
    ~hit:(fun name ->
      if List.mem name stdout_printers then
        Some (name ^ ": lib/ must not print; return a string or use a sink/formatter")
      else None)

let d007 =
  let rule =
    {
      Rule.id = "D007";
      title = "lib module without .mli";
      doc =
        "Every lib/**.ml declares its public surface in a matching .mli.  An \
         open interface invites callers into representation details (mutable \
         state, traversal order) that the determinism argument assumes are \
         private.";
      check = (fun _ -> []);
    }
  in
  let check sources =
    let intfs =
      List.filter_map
        (fun (s : Rule.source) -> if s.kind = Rule.Intf then Some s.path else None)
        sources
    in
    List.filter_map
      (fun (s : Rule.source) ->
        if s.kind = Rule.Impl && Rule.in_lib s.path then
          let want = Filename.remove_extension s.path ^ ".mli" in
          if List.mem want intfs then None
          else
            Some
              (Rule.finding rule ~file:s.path ~line:1 ~col:0
                 (Printf.sprintf "missing interface %s" want))
        else None)
      sources
  in
  { rule with Rule.check }

let rec wild_pattern (p : Parsetree.pattern) =
  match p.Parsetree.ppat_desc with
  | Parsetree.Ppat_any -> true
  | Parsetree.Ppat_or (a, b) -> wild_pattern a || wild_pattern b
  | Parsetree.Ppat_alias (inner, _) -> wild_pattern inner
  | _ -> false

let d008 =
  let rule =
    {
      Rule.id = "D008";
      title = "exception-swallowing handler";
      doc =
        "`try ... with _ ->` catches Out_of_memory, Stack_overflow and every \
         future bug alike, turning crashes into silently wrong (and possibly \
         run-dependent) results.  Name the exceptions the handler is actually \
         meant for.";
      check = (fun _ -> []);
    }
  in
  let check =
    Rule.per_file (fun (s : Rule.source) ->
        match s.ast with
        | None -> []
        | Some ast ->
            let acc = ref [] in
            let flag (p : Parsetree.pattern) =
              let line, col = Syntax.line_col p.Parsetree.ppat_loc in
              acc :=
                Rule.finding rule ~file:s.path ~line ~col
                  "wildcard exception handler swallows everything; match the \
                   intended exceptions (e.g. Not_found, Sys_error)"
                :: !acc
            in
            Syntax.iter_expressions ast (fun e ->
                match e.Parsetree.pexp_desc with
                | Parsetree.Pexp_try (_, cases) ->
                    List.iter
                      (fun (c : Parsetree.case) ->
                        if wild_pattern c.Parsetree.pc_lhs then flag c.Parsetree.pc_lhs)
                      cases
                | Parsetree.Pexp_match (_, cases) ->
                    List.iter
                      (fun (c : Parsetree.case) ->
                        match c.Parsetree.pc_lhs.Parsetree.ppat_desc with
                        | Parsetree.Ppat_exception inner when wild_pattern inner ->
                            flag c.Parsetree.pc_lhs
                        | _ -> ())
                      cases
                | _ -> ());
            List.rev !acc)
  in
  { rule with Rule.check }

let all = [ d005; d006; d007; d008 ]
