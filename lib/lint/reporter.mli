(** Render a lint result.  Both renderers return strings (the CLI owns
    stdout) and are byte-deterministic, so their output can be golden-file
    compared like the [repro stream] trace. *)

val human : Engine.result -> string
(** One [file:line:col RULE error: message] line per finding, then a
    summary line. *)

val json : Engine.result -> string
(** Machine-readable single-object report; findings in the engine's sorted
    order. *)
