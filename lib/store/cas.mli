(** Content-addressed, append-only on-disk store.

    Entries are immutable files [dir/<2-char shard>/<digest>] where the
    digest combines an MD5 of the key with the repo's usual Adler-32 +
    length discipline.  Each file carries a length + Adler-32 trailer
    ({!Stats.Checksum}, as Trace_io v2 archives do) and embeds its full key, so truncation, bit-flips
    and digest collisions are all detected on read.  Invalid entries are
    never errors: they are moved to [dir/quarantine/] and read as misses.
    Writes are temp-file + rename, so concurrent readers and crashed
    writers cannot observe half an entry; an existing entry is never
    rewritten. *)

type t

type counters = {
  hits : int;  (** [find] returned a validated payload *)
  misses : int;  (** [find] returned nothing (includes corrupt reads) *)
  writes : int;  (** [put] created a new entry file *)
  corrupt : int;  (** entries quarantined by [find]/[fold]/[verify]/[reject] *)
}

type stats = {
  entries : int;  (** live entry files *)
  bytes : int;  (** total size of live entry files *)
  quarantined : int;  (** files under [dir/quarantine/] *)
}

val digest_of_key : string -> string
(** ["<md5-hex>-<adler32>-<len>"] — the entry's file name. *)

val open_dir : dir:string -> t
(** Create [dir] (and parents) if missing.  Counters start at zero; they
    belong to this handle, not the directory. *)

val path_of_digest : t -> string -> string

val find : t -> key:string -> string option
(** The payload stored under [key], validating the whole entry file; any
    invalid entry is quarantined and reported as a miss. *)

val put : t -> key:string -> string -> unit
(** Write an entry (temp + rename).  No-op if the entry already exists —
    the store is append-only and entries are immutable.  Raises
    [Sys_error] only for environment failures (permissions, disk full);
    never for content reasons. *)

val reject : t -> key:string -> unit
(** Quarantine the entry for [key], if present.  For callers whose
    payload-level decode failed after a [find] hit. *)

val fold : t -> init:'a -> f:('a -> key:string -> payload:string -> 'a) -> 'a
(** Fold over validated entries in deterministic (shard, digest) order;
    invalid entries quarantine and are skipped. *)

val verify : t -> int * string list
(** Validate every entry: [(ok_count, bad_digests)].  Bad entries are
    quarantined as a side effect. *)

val stats : t -> stats

val gc : t -> ?max_entries:int -> ?max_bytes:int -> unit -> string list
(** Evict entries, least-recently-used first (atime, ties broken by
    digest — fully deterministic when atimes tie), until the store is
    within both budgets.  Returns evicted digests in eviction order.
    With neither budget, evicts nothing. *)

val counters : t -> counters
