(** Code-region registry: maps abstract region ids (one per operator /
    phase / subsystem) to simulated EIP ranges.

    Every region owns a disjoint 1 MB slice of the code address space and
    a popularity distribution over its EIPs (Zipf-ish: a few hot basic
    blocks, a long tail).  The registry answers two questions per sampling
    quantum: {e which EIP does the sampler record} (weighted draw over the
    active regions) and {e which instruction-cache lines does the fetch
    stream touch}. *)

type t

val create : unit -> t

val register : t -> region:int -> n_eips:int -> ?skew:float -> unit -> unit
(** [skew] (default 1.0) is the Zipf exponent of EIP popularity inside the
    region.  Registering the same region twice is an error. *)

val registered : t -> region:int -> bool

val union : ?shared:int list -> t -> t -> t
(** Disjoint union of two registries (the multi-tenant zoo scenarios run
    two workloads' threads over one merged code map).  Entries are shared
    structurally.  Regions listed in [shared] (e.g. the conventional OS
    region) may appear in both maps, in which case the left map's entry
    wins; any other collision raises [Invalid_argument]. *)

val draw_eip : t -> Stats.Rng.t -> region:int -> int
(** Random EIP from the region's popularity distribution. *)

val eip_region : int -> int
(** Recover the region id an EIP belongs to (inverse of the address
    layout). *)

val code_lines :
  t -> Stats.Rng.t -> region_instrs:(int * int) array -> max_lines:int ->
  int array * float
(** Build the quantum's instruction-fetch line sample: up to [max_lines]
    line addresses drawn across the active regions in proportion to their
    instruction counts, plus the weight each sampled line-fetch stands
    for.  The weight is calibrated so the total fetch-event count is
    [total instrs / instrs_per_line_fetch]. *)

val instrs_per_line_fetch : float
(** Model constant: average retired instructions per fresh I-cache line
    fetch (captures straight-line density and loop reuse). *)
