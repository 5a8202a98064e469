(** Hardware stream prefetcher (L2-side, next-N-line).

    Detects ascending line streams from the L2 miss address sequence and,
    once a stream is confirmed, returns the next lines to pre-install.
    Disabled in the default machine configurations so the paper's
    experiments run on the same in-order baseline; the `prefetch` ablation
    experiment turns it on to show that streaming (scan-dominated)
    workloads accelerate while pointer/index workloads do not — which
    moves quadrant boundaries exactly the way an L3-size change does. *)

type t

val create : ?streams:int -> ?degree:int -> ?line_bytes:int -> unit -> t
(** [streams] (default 8) concurrent stream trackers; [degree]
    (default 4) lines fetched ahead once a stream is confirmed. *)

val on_miss : t -> int -> int list
(** [on_miss t addr] observes a miss and returns the addresses the
    prefetcher would fetch (possibly empty).  Detection needs two
    consecutive-line misses to confirm a stream. *)
