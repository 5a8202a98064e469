(** Core vocabulary of the linter: findings, parsed sources and rules. *)

type finding = {
  rule : string;  (** e.g. ["D003"] *)
  file : string;  (** root-relative, ['/']-separated *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, as compilers print it *)
  message : string;
}

type kind = Impl  (** a [.ml] file *) | Intf  (** a [.mli] file *)

type source = {
  path : string;  (** root-relative, ['/']-separated *)
  kind : kind;
  ast : Parsetree.structure option;  (** parse tree; [None] for [Intf] or on error *)
  intf : Parsetree.signature option;  (** parse tree; [None] for [Impl] or on error *)
  parse_error : finding option;  (** rule [E000] finding when parsing failed *)
}

type t = {
  id : string;
  title : string;  (** one-line summary *)
  doc : string;  (** the determinism/hygiene argument the rule protects *)
  check : source list -> finding list;
      (** sees every source at once so repo-level rules (D007) can
          cross-reference files; per-file rules use {!per_file} *)
}

val finding : t -> file:string -> line:int -> col:int -> string -> finding

val compare_finding : finding -> finding -> int
(** Total order (file, line, col, rule, message): report order never depends
    on rule registration or traversal order. *)

val under : string -> string -> bool
(** [under "lib" "lib/core/x.ml"] — path-prefix scope test. *)

val in_lib : string -> bool
val per_file : (source -> finding list) -> source list -> finding list

val json_escape : string -> string
(** The body of a JSON string literal for [s]: quote, backslash and
    control characters escaped.  Shared by the lint report and the
    call-graph export. *)
