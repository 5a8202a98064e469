(** Wires the content-addressed store into [Experiments.analyze_cached]
    as its persistent second tier (memory -> disk -> compute). *)

val attach : dir:string -> unit
(** Open (creating if needed) the store at [dir] and install it via
    {!Fuzzy.Experiments.set_disk_tier}.  Call once at startup, before
    serving traffic. *)

val detach : unit -> unit
(** Remove the disk tier; analyses fall back to memory -> compute. *)

val attached : unit -> Cas.t option
(** The store handle installed by {!attach}, for stats/verify/gc. *)

val warm : jobs:int -> unit -> int
(** Preload the in-memory cache from every readable store entry whose key
    parses under the current build's code stamp; returns the number of
    analyses loaded.  [jobs] fills the config field keys deliberately
    omit.  One read per entry; every entry whose key parses counts as a
    store hit, even if its payload then fails to decode.  Unreadable
    entries quarantine. *)

val counters : unit -> Cas.counters option
(** Store counters for this handle, or [None] when detached. *)
