(** Sampling-technique simulation and selection (the paper's Section 7
    payoff: "no single sampling technique can be broadly applied... select
    the best-suited technique per quadrant").

    Each technique picks a budget of representative intervals from a full
    run and estimates whole-program CPI from them; the error against the
    true mean CPI measures how well that technique would steer a sampled
    simulation of the workload. *)

type technique =
  | Uniform  (** every (m/budget)-th interval *)
  | Random  (** budget intervals uniformly at random *)
  | Phase_based
      (** SimPoint-style: k-means over EIPVs, one representative per
          cluster, weighted by cluster size *)
  | Stratified
      (** Perelman-style: k-means clusters get representatives
          proportional to their CPI dispersion *)

val all : technique list
val to_string : technique -> string

type estimate = {
  technique : technique;
  budget : int;
  picked : int list;  (** chosen interval indices *)
  estimated_cpi : float;
  true_cpi : float;
  rel_error : float;  (** |est - true| / true *)
}

val estimate :
  technique -> Stats.Rng.t -> Sampling.Eipv.t -> budget:int -> estimate
(** [budget] is clamped to the number of intervals. *)

val evaluate :
  ?trials:int -> Stats.Rng.t -> Sampling.Eipv.t -> budget:int ->
  (technique * float) list
(** Mean relative error over [trials] (default 9) repetitions, one entry
    per technique, in {!all} order. *)

val recommend : Quadrant.t -> technique
(** The paper's per-quadrant prescription. *)

val rationale : Quadrant.t -> string
