(** The workload zoo: a deterministic scenario generator sweeping the
    simulator's parameter space.

    The paper evaluates the quadrant map on 50 hand-named workloads; the
    zoo extends that population to 200+ generated scenarios so the
    (CPI variance, RE) quadrant boundaries become regression-testable.
    Five families sweep orthogonal axes:

    - {b synth}: machine preset x working-set tier (L1-resident through
      far-beyond-L3) x access pattern x drift schedule (steady, a CPI
      rate walk invisible to EIPs, a growing working set, mid-run phase
      changes);
    - {b oltp}: ODB-C thread count x buffer-pool size x B-tree key skew
      (uniform vs adversarial hot-key);
    - {b dss}: all 22 ODB-H query plans x thread count;
    - {b appserver}: SjAS session/old-generation heap sizes x handler
      code footprint;
    - {b tenant}: multi-tenant interleavings — two server workloads'
      threads merged over one code map in disjoint address ranges,
      sharing the hardware caches.

    Every scenario is reconstructible from its serialized {!Manifest}
    alone, and its PRNG stream is [Stats.Rng.split_label seed name], so
    atlas rows are a function of (manifest, analysis config) — never of
    scheduling, registration order or pool size. *)

type scenario = {
  manifest : Manifest.t;
  quick : bool;  (** member of the --quick representative subset *)
}

val all : unit -> scenario list
(** The full generated population (200+), sorted by scenario name. *)

val quick : unit -> scenario list
(** The --quick representative subset: every family, machine and drift
    schedule is represented; small enough to golden-gate in CI. *)

val machine : Manifest.t -> (March.Config.t, string) result
(** Resolve the manifest's machine preset. *)

val model : Manifest.t -> seed:int -> scale:float -> (Workload.Model.t, string) result
(** Build the scenario's workload model.  Any decoded manifest that
    round-trips {!Manifest.encode} rebuilds the identical model. *)

