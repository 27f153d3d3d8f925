(** The paper's three pitfalls, packaged as analyses over campaign data so
    reports, examples and tests all share one implementation. *)

(** {1 Pitfall 1: unweighted result accounting} *)

type pitfall1 = {
  unweighted_coverage : float;  (** Figure 2a style. *)
  weighted_coverage : float;  (** Figure 2b style. *)
  delta_percent_points : float;
      (** weighted − unweighted, in percent points.  The paper reports
          9.1–33.2 pp underestimation on its benchmarks. *)
  unweighted_failures : int;  (** Figure 2d style. *)
  weighted_failures : int;  (** Figure 2e style. *)
}

val analyze_pitfall1 : Scan.t -> pitfall1
(** Both accountings of one campaign, side by side. *)

(** {1 Pitfall 2: biased sampling} *)

type pitfall2 = {
  ground_truth_failure_fraction : float;
      (** F/w from the full scan: what an unbiased estimator converges
          to. *)
  correct_estimate : float;
      (** Failure fraction from raw-space sampling. *)
  biased_estimate : float;
      (** Failure fraction from per-class sampling, rescaled to the same
          population the naive evaluator assumes. *)
  bias : float;
      (** |biased − truth| − |correct − truth|: positive when per-class
          sampling is farther from the truth. *)
}

val analyze_pitfall2 :
  scan:Scan.t ->
  correct:Sampler.estimate ->
  biased:Sampler.estimate ->
  pitfall2

(** {1 Pitfall 3: fault coverage as a comparison metric} *)

type pitfall3 = {
  baseline_coverage : float;
  hardened_coverage : float;
  coverage_says : Compare.verdict;
      (** What comparing coverage percentages would conclude. *)
  failure_ratio : float;  (** The objective r = F_h / F_b. *)
  truth_says : Compare.verdict;  (** What the objective metric concludes. *)
  misleading : bool;
      (** The dangerous case: the two verdicts disagree (as for sync2, and
          for the DFT-"hardened" Hi program). *)
}

val analyze_pitfall3 : baseline:Scan.t -> hardened:Scan.t -> pitfall3

val pp_pitfall1 : Format.formatter -> pitfall1 -> unit
val pp_pitfall3 : Format.formatter -> pitfall3 -> unit
