(** CPU performance model: converts a {!Quantum.t} into cycles with a
    precise WORK/FE/EXE/OTHER attribution, mimicking the Itanium 2 stall
    counters the paper reads.

    Accounting rules:
    - WORK  = instrs * base_cpi.
    - FE    = instruction-fetch misses * level latency * fetch factor
              + branch mispredicts * penalty.
    - EXE   = data miss latency * (1 - overlap), summed over references.
    - OTHER = TLB walks + structural base stalls + the quantum's
              [extra_other_cycles].
    Cache, predictor and TLB state persist across quanta, so workload
    phase changes show up as warm-up transients exactly like on real
    hardware. *)

type t

type result = {
  cycles : float;
  breakdown : Breakdown.t;
  l3_data_misses : float;
      (** weighted count of data references served by memory *)
  dcache_misses : float;  (** weighted count of L1D misses *)
  branch_mispredicts : float;  (** weighted count *)
}

val create : Config.t -> t
val config : t -> Config.t
val run : t -> Quantum.t -> result

val pollute : t -> fraction:float -> unit
(** Evict roughly [fraction] of the L1/L2 contents by touching conflicting
    lines — the cache-pollution cost of a context switch. *)
