(** Parametric phase-machine workload threads — the synthetic stand-in for
    SPEC CPU2K binaries.

    A program is a cyclic sequence of phases.  Each phase owns a code
    region (its EIP footprint), a data working set with an access pattern,
    and branch behaviour.  CPI then {e emerges} from the march model:
    cache-resident loops run near base CPI, streaming phases pay memory
    latency, entropy-laden branches pay mispredicts.  Two extra knobs
    create the paper's hard cases:

    - [rate_mod] multiplies the reference rate with a bounded random walk
      that is invisible in the EIPs — CPI varies while code does not
      (quadrant Q-III material);
    - [work_walk] slides the working-set window through a larger
      footprint, so cache hit rates drift data-dependently (mcf/gcc-like
      irregularity). *)

type pattern =
  | Sequential  (** stream through the working set *)
  | Strided of int  (** fixed stride in bytes *)
  | Random  (** uniform random within the working set *)
  | Chase  (** pointer-chase (random, dependent loads) *)

type modulation =
  | Steady
  | Walk of { step : float; lo : float; hi : float }
      (** per-quantum multiplicative random walk on the reference rate *)

type phase = {
  label : string;
  region : int;
  n_eips : int;
  eip_skew : float;
  work_bytes : int;
  pattern : pattern;
  refs_per_kinstr : float;
  hot_frac : float;
      (** fraction of references to a small always-L1-resident hot area
          (stack, locals); these can never stall and are not emitted *)
  branches_per_kinstr : float;
  branch_entropy : float;  (** fraction of branches with random direction *)
  duration_quanta : int * int;  (** uniform range, in sampling quanta *)
  rate_mod : modulation;
  work_walk : int;  (** 0 = fixed window; else footprint multiplier *)
}

val phase :
  label:string ->
  region:int ->
  n_eips:int ->
  ?eip_skew:float ->
  work_bytes:int ->
  pattern:pattern ->
  ?refs_per_kinstr:float ->
  ?hot_frac:float ->
  ?branches_per_kinstr:float ->
  ?branch_entropy:float ->
  duration_quanta:int * int ->
  ?rate_mod:modulation ->
  ?work_walk:int ->
  unit ->
  phase
(** Defaults: skew 1.0, 350 refs/kinstr, hot fraction 0.9,
    120 branches/kinstr, entropy 0.05, steady rate, fixed window.

    Only {e miss candidates} are emitted into the sink: cold sequential
    streams are line-granular (one candidate per 64-byte line, assuming
    8-byte elements), cold random/chase references are all candidates, and
    hot references are dropped (they are L1 hits by construction).  The
    excess beyond the per-quantum cap is recorded with
    [Sink.account_refs] so the driver can scale stall costs. *)

val thread :
  Stats.Rng.t ->
  code:Code_map.t ->
  space:Dbengine.Addr_space.t ->
  phases:phase array ->
  tid:int ->
  Model.thread
(** Builds the thread and registers each phase's code region (unless a
    sibling thread already did).  Emitted events are capped per quantum
    (the excess is accounted for via {!Dbengine.Sink.account_refs}). *)
