(* Two waiver channels:
   - `[@lint.allow "D003"]` attributes on the offending expression (or any
     enclosing binding), for point exemptions that live next to the code;
   - a checked-in `lint.waivers` baseline file, for findings that cannot
     carry an attribute (e.g. D007 on a whole file).
   Both are tracked: a baseline entry that no longer matches anything is
   itself reported (W000), so the file can only shrink. *)

type entry = {
  rule : string;
  path : string;
  line : int option;
  reason : string;
  entry_line : int;  (* line in the waiver file, for W000 reports *)
}

type t = { wpath : string; entries : entry list }

let empty = { wpath = "lint.waivers"; entries = [] }

let parse_entry ~entry_line line =
  match String.index_opt line ' ' with
  | None -> Error (Printf.sprintf "line %d: expected 'RULE PATH[:LINE] reason'" entry_line)
  | Some i ->
      let rule = String.sub line 0 i in
      let rest = String.trim (String.sub line i (String.length line - i)) in
      let target, reason =
        match String.index_opt rest ' ' with
        | None -> (rest, "")
        | Some j ->
            ( String.sub rest 0 j,
              String.trim (String.sub rest j (String.length rest - j)) )
      in
      if target = "" then
        Error (Printf.sprintf "line %d: missing path" entry_line)
      else
        let path, line_no =
          match String.rindex_opt target ':' with
          | Some k -> (
              let tail = String.sub target (k + 1) (String.length target - k - 1) in
              match int_of_string_opt tail with
              | Some n -> (String.sub target 0 k, Some n)
              | None -> (target, None))
          | None -> (target, None)
        in
        Ok { rule; path; line = line_no; reason; entry_line }

let parse_string ~path text =
  let lines = String.split_on_char '\n' text in
  let rec go i acc = function
    | [] -> Ok { wpath = path; entries = List.rev acc }
    | l :: rest ->
        let l = String.trim l in
        if l = "" || l.[0] = '#' then go (i + 1) acc rest
        else (
          match parse_entry ~entry_line:i l with
          | Ok e -> go (i + 1) (e :: acc) rest
          | Error _ as err -> err)
  in
  go 1 [] lines

let load ~path file =
  match In_channel.with_open_bin file In_channel.input_all with
  | text -> parse_string ~path text
  | exception Sys_error msg -> Error msg

type allow = { arule : string; afile : string; from_line : int; to_line : int }

let allow_ids (attr : Parsetree.attribute) =
  if attr.Parsetree.attr_name.Asttypes.txt <> "lint.allow" then []
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

let allows ~file ast =
  let acc = ref [] in
  let add attrs (loc : Location.t) =
    List.iter
      (fun attr ->
        List.iter
          (fun id ->
            acc :=
              {
                arule = id;
                afile = file;
                from_line = loc.Location.loc_start.Lexing.pos_lnum;
                to_line = loc.Location.loc_end.Lexing.pos_lnum;
              }
              :: !acc)
          (allow_ids attr))
      attrs
  in
  let default = Ast_iterator.default_iterator in
  let expr self (e : Parsetree.expression) =
    add e.Parsetree.pexp_attributes e.Parsetree.pexp_loc;
    default.Ast_iterator.expr self e
  in
  let value_binding self (vb : Parsetree.value_binding) =
    add vb.Parsetree.pvb_attributes vb.Parsetree.pvb_loc;
    default.Ast_iterator.value_binding self vb
  in
  let structure_item self (si : Parsetree.structure_item) =
    (match si.Parsetree.pstr_desc with
    | Parsetree.Pstr_attribute attr ->
        (* A floating [@@@lint.allow "..."] waives the whole file. *)
        List.iter
          (fun id ->
            acc := { arule = id; afile = file; from_line = 1; to_line = max_int } :: !acc)
          (allow_ids attr)
    | _ -> ());
    default.Ast_iterator.structure_item self si
  in
  let it = { default with Ast_iterator.expr; value_binding; structure_item } in
  it.Ast_iterator.structure it ast;
  !acc

(* Same channel for .mli files: [@@lint.allow "G004"] on a val (nested
   [module X : sig ... end] vals included, as G004 audits them), or a
   floating [@@@lint.allow "..."] for the whole interface. *)
let allows_sig ~file (sg : Parsetree.signature) =
  let acc = ref [] in
  let add attrs (loc : Location.t) =
    List.iter
      (fun attr ->
        List.iter
          (fun id ->
            acc :=
              {
                arule = id;
                afile = file;
                from_line = loc.Location.loc_start.Lexing.pos_lnum;
                to_line = loc.Location.loc_end.Lexing.pos_lnum;
              }
              :: !acc)
          (allow_ids attr))
      attrs
  in
  let rec items sg =
    List.iter
      (fun (item : Parsetree.signature_item) ->
        match item.Parsetree.psig_desc with
        | Parsetree.Psig_value vd ->
            add vd.Parsetree.pval_attributes vd.Parsetree.pval_loc
        | Parsetree.Psig_module { pmd_type = { pmty_desc = Parsetree.Pmty_signature sub; _ }; _ }
          ->
            items sub
        | Parsetree.Psig_attribute attr ->
            List.iter
              (fun id ->
                acc := { arule = id; afile = file; from_line = 1; to_line = max_int } :: !acc)
              (allow_ids attr)
        | _ -> ())
      sg
  in
  items sg;
  !acc

let allow_covers (a : allow) (f : Rule.finding) =
  a.arule = f.Rule.rule && a.afile = f.Rule.file && a.from_line <= f.Rule.line
  && f.Rule.line <= a.to_line

let entry_covers (e : entry) (f : Rule.finding) =
  e.rule = f.Rule.rule && e.path = f.Rule.file
  && match e.line with None -> true | Some l -> l = f.Rule.line

let apply t ~allows:als findings =
  let used = Array.make (List.length t.entries) false in
  let waived, kept =
    List.partition
      (fun f ->
        List.exists (fun a -> allow_covers a f) als
        ||
        let hit = ref false in
        List.iteri
          (fun i e ->
            if entry_covers e f then begin
              used.(i) <- true;
              hit := true
            end)
          t.entries;
        !hit)
      findings
  in
  let unused = List.filteri (fun i _ -> not used.(i)) t.entries in
  (kept, waived, unused)
