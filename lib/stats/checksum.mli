(** Adler-32 and the checksummed text trailer that seals the repo's
    line-oriented archives: trace files ([Sampling.Trace_io], tag
    [fuzzytrace]) and store entries ([Store.Cas], tag [fuzzystore]).

    A sealed blob is the body followed by one trailer line
    ["<tag>-end <body length> <adler32 of body>\n"], so truncation, growth
    and bit flips are all caught before any body byte is interpreted. *)

val adler32 : string -> int
(** Adler-32 (RFC 1950) of the whole string, in [0, 2^32). *)

val seal : tag:string -> string -> string
(** [seal ~tag body] is [body] followed by its trailer line. *)

val unseal : tag:string -> string -> (string, string) result
(** The body a sealed blob covers.  [Error] names the failure: an empty
    blob, no final newline, no [<tag>-end] trailer, a body length other
    than the declared one, or a checksum mismatch. *)
