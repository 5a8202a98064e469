(** Persist and reload measurement runs.

    The paper's workflow is collect-once / analyze-many: VTune sampling
    took hours on a tuned database machine, while regression-tree analysis
    ran offline in R.  This module gives the reproduction the same split:
    a {!Driver.run} round-trips through a self-describing text format
    (one header line, one line per sample), so expensive simulations can
    be archived and re-analyzed with different interval sizes, fold seeds
    or thresholds without re-running the machine model. *)

val save : Driver.run -> path:string -> unit
(** Overwrites [path].  The format is versioned; all run metadata and
    per-sample fields (including the region histograms used by
    {!Rvec}) are preserved.  The write is crash-safe: data goes to a
    temporary file in [path]'s directory which is atomically renamed
    into place, so an interrupted save never leaves a truncated archive
    that {!load} would reject.  The archive ends with a trailer
    declaring the byte length and Adler-32 checksum of everything
    before it. *)

val to_string : Driver.run -> string
(** The exact archive bytes {!save} writes (body plus end-of-trace
    trailer), for embedding a run inside another checksummed container —
    the persistent result store ([lib/store]) stores each memoized
    analysis's run this way. *)

val of_string : label:string -> ?pos:int -> ?len:int -> string -> Driver.run
(** Decode archive bytes produced by {!to_string} (or read from a file
    {!save} wrote): the [len] bytes at [pos] (the whole string by
    default), read in place.  [label] stands in for the file path in
    error messages.  Same validation and failure contract as {!load};
    raises [Invalid_argument] if the range is not inside the string.

    Sample lines must be exactly what {!to_string} writes: fields
    separated by one space, and ['\n'] right after the last region pair.
    Ints are [-?[0-9]+] within the [int] range, [min_int] included.
    Floats are [%h] tokens: ["0x..."] or ["-0x..."] ending in an exponent
    digit, or ["nan"], ["-nan"], ["infinity"], ["-infinity"], converted
    as [float_of_string] and Scanf's ["%h"] convert them, so the bits are
    the same.  Lines past the declared sample count are not read. *)

val load : path:string -> Driver.run
(** Raises [Failure] with a descriptive message — never a bare decode
    exception — on a truncated file (trailer missing or length short),
    a corrupted file (checksum mismatch), a version mismatch or a
    malformed line.  The whole file is validated against the trailer
    before any sample is decoded.  Version-1 archives (written before
    the trailer existed) are still accepted; they carry no checksum, so
    only per-line validation applies to them. *)
