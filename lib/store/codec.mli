(** Canonical key and payload serialization for the result store.

    Keys are deterministic text renderings of (code stamp, workload name,
    analysis config minus [jobs]); floats use hex-float notation so the
    key <-> config roundtrip is byte-exact.  Payloads persist only the
    expensive parts of an analysis — the sample run and the CV curve —
    and {!Fuzzy.Analysis.of_parts} rebuilds the rest on load. *)

val canonical_key : Fuzzy.Analysis.config -> string -> string
(** [canonical_key config name] — every field that can change analysis
    output bytes, and nothing else ([jobs] is excluded). *)

val parse_key : jobs:int -> string -> (Fuzzy.Analysis.config * string) option
(** Invert {!canonical_key}.  [Some] only for a key that {!canonical_key}
    writes back byte for byte; [None] for foreign stamps, unknown machine
    names, numbers in any other spelling, or malformed text — warm-restart
    skips such entries.  [jobs] fills the one config field the key
    deliberately omits. *)

val encode_entry : Fuzzy.Analysis.t -> string
(** Payload bytes for a store entry: the run as a checksummed Trace_io v2
    archive plus the RE curve in hex-float text. *)

val decode_entry :
  string -> (Sampling.Driver.run * Rtree.Cv.curve, string) result
(** Inverse of {!encode_entry}; [Error reason] on any malformed payload
    (the store treats it as corrupt — quarantine and recompute). *)
