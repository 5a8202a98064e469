(** Parsing and AST-walking helpers shared by all rules. *)

val line_col : Location.t -> int * int
(** (1-based line, 0-based column) of the location's start. *)

val parse_string :
  path:string -> string -> (Parsetree.structure, int * int * string) result
(** Parse [.ml] source text; [path] seeds the lexer locations.  On a syntax
    error returns [(line, col, message)]. *)

val parse_interface_string :
  path:string -> string -> (Parsetree.signature, int * int * string) result
(** Same for [.mli] source text. *)

val attr_strings : name:string -> Parsetree.attribute -> string list
(** The space/comma-separated words of a string-payload attribute named
    [name] (e.g. [[@lint.allow "D003 D005"]]); [[]] for other attributes. *)

val strip_stdlib : string list -> string list
(** Drop an explicit leading ["Stdlib"] from a dotted-name segment list. *)

val longident_name : Longident.t -> string option
(** ["Hashtbl.fold"]-style dotted name with any [Stdlib.] prefix stripped;
    [None] for functor applications. *)

val iter_expressions : Parsetree.structure -> (Parsetree.expression -> unit) -> unit
val iter_idents : Parsetree.structure -> (string -> Location.t -> unit) -> unit

val ident_rule :
  id:string ->
  title:string ->
  doc:string ->
  scope:(string -> bool) ->
  hit:(string -> string option) ->
  Rule.t
(** Build the common rule shape: in every file selected by [scope], flag each
    value identifier for which [hit name] returns a message, as an error. *)
