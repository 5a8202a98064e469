type finding = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
}

type kind = Impl | Intf

type source = {
  path : string;
  kind : kind;
  ast : Parsetree.structure option;
  intf : Parsetree.signature option;
  parse_error : finding option;
}

type t = {
  id : string;
  title : string;
  doc : string;
  check : source list -> finding list;
}

let finding (r : t) ~file ~line ~col message =
  { rule = r.id; file; line; col; message }

(* Total order on findings: report order is a pure function of the finding
   set, never of rule registration or traversal order. *)
let compare_finding a b =
  compare
    (a.file, a.line, a.col, a.rule, a.message)
    (b.file, b.line, b.col, b.rule, b.message)

let under dir path = String.starts_with ~prefix:(dir ^ "/") path
let in_lib path = under "lib" path
let per_file f sources = List.concat_map f sources

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b
