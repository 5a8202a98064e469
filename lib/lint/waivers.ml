(* One waiver channel: `[@lint.allow "D003"]` attributes next to the code.
   On an expression or any enclosing binding the attribute waives those
   lines; on a `val` in an .mli (nested `module X : sig ... end` vals
   included, as G004 audits them) it waives that declaration; a floating
   `[@@@lint.allow "..."]` waives the whole file, which is how file-level
   findings such as D007 are waived. *)

type allow = { arule : string; afile : string; from_line : int; to_line : int }

let lines (loc : Location.t) =
  (loc.Location.loc_start.Lexing.pos_lnum, loc.Location.loc_end.Lexing.pos_lnum)

let whole_file = (1, max_int)

(* [walk add] calls [add span attrs] for every attribute list of one parse
   tree; each id a lint.allow attribute names is waived over [span]. *)
let collect ~file walk =
  let acc = ref [] in
  let add (from_line, to_line) attrs =
    List.iter
      (fun attr ->
        List.iter
          (fun arule -> acc := { arule; afile = file; from_line; to_line } :: !acc)
          (Syntax.attr_strings ~name:"lint.allow" attr))
      attrs
  in
  walk add;
  !acc

let allows_impl ~file ast =
  collect ~file (fun add ->
      let default = Ast_iterator.default_iterator in
      let expr self (e : Parsetree.expression) =
        add (lines e.Parsetree.pexp_loc) e.Parsetree.pexp_attributes;
        default.Ast_iterator.expr self e
      in
      let value_binding self (vb : Parsetree.value_binding) =
        add (lines vb.Parsetree.pvb_loc) vb.Parsetree.pvb_attributes;
        default.Ast_iterator.value_binding self vb
      in
      let structure_item self (si : Parsetree.structure_item) =
        (match si.Parsetree.pstr_desc with
        | Parsetree.Pstr_attribute attr -> add whole_file [ attr ]
        | _ -> ());
        default.Ast_iterator.structure_item self si
      in
      let it = { default with Ast_iterator.expr; value_binding; structure_item } in
      it.Ast_iterator.structure it ast)

let allows_intf ~file sg =
  collect ~file (fun add ->
      let rec items sg =
        List.iter
          (fun (item : Parsetree.signature_item) ->
            match item.Parsetree.psig_desc with
            | Parsetree.Psig_value vd ->
                add (lines vd.Parsetree.pval_loc) vd.Parsetree.pval_attributes
            | Parsetree.Psig_module
                { pmd_type = { pmty_desc = Parsetree.Pmty_signature sub; _ }; _ } ->
                items sub
            | Parsetree.Psig_attribute attr -> add whole_file [ attr ]
            | _ -> ())
          sg
      in
      items sg)

let allows (s : Rule.source) =
  let file = s.Rule.path in
  (match s.Rule.ast with Some ast -> allows_impl ~file ast | None -> [])
  @ match s.Rule.intf with Some sg -> allows_intf ~file sg | None -> []

let covers (a : allow) (f : Rule.finding) =
  a.arule = f.Rule.rule && a.afile = f.Rule.file && a.from_line <= f.Rule.line
  && f.Rule.line <= a.to_line

let apply sources findings =
  let als = List.concat_map allows sources in
  let waived, kept =
    List.partition (fun f -> List.exists (fun a -> covers a f) als) findings
  in
  (kept, waived)
