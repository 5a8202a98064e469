(* Thin layer over compiler-libs: parsing and the two AST walks every rule
   needs (value identifiers and raw expressions). *)

let line_col (loc : Location.t) =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

let parse_error_of_exn exn =
  match Location.error_of_exn exn with
  | Some (`Ok report) ->
      let loc = report.Location.main.Location.loc in
      let line, col = line_col loc in
      let msg = Format.asprintf "%t" report.Location.main.Location.txt in
      (line, col, msg)
  | Some `Already_displayed | None -> (1, 0, Printexc.to_string exn)

let parse_string ~path code =
  let lexbuf = Lexing.from_string code in
  Location.init lexbuf path;
  match Parse.implementation lexbuf with
  | ast -> Ok ast
  | exception exn -> Error (parse_error_of_exn exn)

let parse_interface_string ~path code =
  let lexbuf = Lexing.from_string code in
  Location.init lexbuf path;
  match Parse.interface lexbuf with
  | sg -> Ok sg
  | exception exn -> Error (parse_error_of_exn exn)

(* Shared extractor for the linter's own string-payload attributes
   ([@lint.allow "..."], [@lint.root "..."]): the payload is split on
   spaces and commas. *)
let attr_strings ~name (attr : Parsetree.attribute) =
  if attr.Parsetree.attr_name.Asttypes.txt <> name then []
  else
    match attr.Parsetree.attr_payload with
    | Parsetree.PStr
        [
          {
            Parsetree.pstr_desc =
              Parsetree.Pstr_eval
                ( {
                    Parsetree.pexp_desc =
                      Parsetree.Pexp_constant (Parsetree.Pconst_string (s, _, _));
                    _;
                  },
                  _ );
            _;
          };
        ] ->
        String.split_on_char ' ' s
        |> List.concat_map (String.split_on_char ',')
        |> List.filter_map (fun id ->
               let id = String.trim id in
               if id = "" then None else Some id)
    | _ -> []

(* "Stdlib.Hashtbl.fold" and "Hashtbl.fold" must hit the same rules. *)
let strip_stdlib = function "Stdlib" :: (_ :: _ as rest) -> rest | parts -> parts

let longident_name lid =
  let rec flatten acc = function
    | Longident.Lident s -> Some (s :: acc)
    | Longident.Ldot (l, s) -> flatten (s :: acc) l
    | Longident.Lapply _ -> None
  in
  match flatten [] lid with
  | Some parts -> Some (String.concat "." (strip_stdlib parts))
  | None -> None

let iter_expressions ast f =
  let default = Ast_iterator.default_iterator in
  let expr self e =
    f e;
    default.Ast_iterator.expr self e
  in
  let it = { default with Ast_iterator.expr } in
  it.Ast_iterator.structure it ast

let iter_idents ast f =
  iter_expressions ast (fun e ->
      match e.Parsetree.pexp_desc with
      | Parsetree.Pexp_ident { Asttypes.txt; loc } -> (
          match longident_name txt with Some name -> f name loc | None -> ())
      | _ -> ())

let ident_rule ~id ~title ~doc ~scope ~hit =
  let rule = { Rule.id; title; doc; check = (fun _ -> []) } in
  let check =
    Rule.per_file (fun (s : Rule.source) ->
        if not (scope s.path) then []
        else
          match s.ast with
          | None -> []
          | Some ast ->
              let acc = ref [] in
              iter_idents ast (fun name loc ->
                  match hit name with
                  | Some message ->
                      let line, col = line_col loc in
                      acc := Rule.finding rule ~file:s.path ~line ~col message :: !acc
                  | None -> ());
              List.rev !acc)
  in
  { rule with Rule.check }
