(** Synthetic models of the 26 SPEC CPU2K benchmarks.

    Each model is a single-threaded phase machine whose parameters encode
    the benchmark's published character (working-set size, access pattern,
    branchiness, phase structure).  The paper's Table 2 behaviours then
    emerge from simulation:

    - {b Q-I models} (half the suite): one dominant cache-friendly phase —
      CPI variance is tiny, so EIPVs have nothing to explain;
    - {b Q-II models} (wupwise, mgrid, applu): alternating loop nests with
      slightly different CPI — small variance, fully explained by code;
    - {b Q-III models} (gcc, gap, ammp, facerec, apsi, fma3d, sixtrack):
      data-dependent cache/branch behaviour under near-constant code — the
      variance EIPVs cannot explain;
    - {b Q-IV models} (mcf, art, swim): long phases with very different
      CPI and distinct code — large variance, strongly explained. *)

val names : string array
(** The 26 benchmark names (12 CINT2000 + 14 CFP2000). *)

val model : seed:int -> string -> Model.t
(** Raises [Invalid_argument] for unknown names. *)

val expected_quadrant : string -> int
(** The quadrant (1-4) the model is designed to land in; the documented
    synthesis of the paper's (partially OCR-garbled) Table 2. *)
