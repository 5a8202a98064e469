(** The measurement driver: runs a workload on a CPU model under a
    VTune-like event-based sampler.

    Execution advances one sampling quantum (one "period" of retired
    instructions) at a time: the scheduler picks a thread, the thread
    fills the event sink, OS overhead is charged for context switches and
    blocking I/O, the micro-trace is executed by the CPU model, and one
    sample — (EIP, thread, cycle and stall-component deltas) — is
    recorded, exactly the schema of the paper's Section 3.1. *)

type sample = {
  eip : int;
  tid : int;
  instrs : int;  (** retired instructions in this quantum *)
  cycles : float;
  breakdown : March.Breakdown.t;
  os_instrs : int;  (** instructions spent in the OS region this quantum *)
  region_instrs : (int * int) array;
      (** exact (code region, instructions) histogram of the quantum — the
          full-profile information a basic-block-vector profiler would
          capture, unavailable to a real sampler but recorded here for the
          EIPV-vs-BBV comparison *)
}

type run = {
  workload : string;
  machine : string;
  samples : sample array;
  period : int;
  context_switches : int;
  io_blocks : int;
  os_instr_total : int;
  total_instrs : int;
  total_cycles : float;
}

type meta = {
  stream_workload : string;
  stream_machine : string;
  stream_period : int;
  stream_context_switches : int;
  stream_io_blocks : int;
  stream_os_instr_total : int;
  stream_total_instrs : int;
  stream_total_cycles : float;
  stream_samples : int;
}
(** Run metadata without the sample array — what {!stream} can report
    while keeping memory independent of run length. *)

val stream :
  ?period:int ->
  Workload.Model.t ->
  cpu:March.Cpu.t ->
  rng:Stats.Rng.t ->
  samples:int ->
  f:(int -> sample -> unit) ->
  meta
(** Streaming core of the driver: execute [samples] sampling quanta,
    calling [f index sample] for each one as it is measured, without
    materialising the run.  {!run} is [stream] collecting into an array,
    so for equal inputs the two produce identical sample sequences and
    totals.  This is the ingestion path of the online-analysis subsystem
    ([Online.Pipeline]), whose memory must stay bounded on runs of
    arbitrary length. *)

val run :
  ?period:int ->
  Workload.Model.t ->
  cpu:March.Cpu.t ->
  rng:Stats.Rng.t ->
  samples:int ->
  run
(** [period] defaults to 20_000 instructions (the scaled stand-in for the
    paper's 1M-instruction sampling period). *)

val cpi : run -> float
(** Aggregate cycles-per-instruction of the whole run. *)

val os_fraction : run -> float
val context_switches_per_minstr : run -> float
(** Context switches per million instructions (the scale-free analogue of
    the paper's switches/second). *)

val unique_eips : run -> int
