(** Rendering helpers shared by the benchmark harness, the CLI and the
    examples: every regenerated table/figure prints through these so the
    output is uniform. *)

val re_curve : ?points:int -> Rtree.Cv.curve -> string
(** Figure 2/6/7/8/10 style: rows of (k, RE_k), downsampled, plus a
    sparkline. *)

val re_curves : ?points:int -> (string * Rtree.Cv.curve) list -> string
(** Several curves side by side (same k axis). *)

val spread : Sampling.Driver.run -> points:int -> string
(** Figure 3/9/11 style: the EIP spread (sample index vs EIP rank) and
    the per-interval CPI over time, as sparklines plus summary rows. *)

val breakdown_series : Sampling.Eipv.t -> points:int -> string
(** Figure 4/5/12 style: stacked WORK/FE/EXE/OTHER per-instruction
    components over time. *)

val analysis_table : Analysis.t list -> string
val quadrant_counts : Analysis.t list -> string

val techniques_table : (Techniques.technique * float) list -> string

val comparison_table : Compare.t list -> string

val machine_table : Robustness.machine_row list -> string
val interval_table : Robustness.interval_row list -> string

val analyze_report : Analysis.t -> string
(** The full per-workload report `repro analyze` prints: summary line,
    RE curve, most CPI-predictive EIPs and the recommended sampling
    technique.  The serve [Analyze] RPC returns exactly this string, so
    online and offline output can be compared byte-for-byte. *)
