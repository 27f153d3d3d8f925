(** The metrics under study.

    This module implements both the classic fault-coverage factor (whose
    unfitness for program comparison is the paper's central result) and
    the proposed objective metric — absolute failure counts, extrapolated
    to the fault-space size when sampling is used (Section V). *)

val failure_count : ?policy:Accounting.t -> Scan.t -> int
(** [failure_count scan] is F: under the default {!Accounting.correct}
    policy, the number of fault-space coordinates whose injection leads to
    a failure (each experiment counted with its class weight) — the
    paper's comparison metric.  Under an [Unweighted] policy it is the raw
    number of failing experiments (Figure 2d). *)

val no_effect_count : ?policy:Accounting.t -> Scan.t -> int
(** Benign counterpart of {!failure_count}.  Under [Full_space] policies
    this includes the a-priori benign coordinates. *)

val experiment_total : ?policy:Accounting.t -> Scan.t -> int
(** The denominator N implied by the policy: fault-space size [w]
    ({!Scan.fault_space_size}, the fault model's whole space) for
    [Full_space]+[Weighted], total conducted weight w′ for
    [Conducted_only]+[Weighted], or plain experiment counts when
    unweighted. *)

val coverage : ?policy:Accounting.t -> Scan.t -> float
(** Fault-coverage factor c = 1 − F/N under the given accounting policy
    (Equation 2).  Correct-policy coverage equals
    P(No Effect | 1 fault) exactly for a full scan — and is still unfit
    for comparing {e different} programs (Section IV). *)

val outcome_histogram :
  ?policy:Accounting.t -> Scan.t -> (Outcome.t * int) list
(** Per-outcome totals under the policy (zero-count outcomes omitted). *)

val failure_probability :
  ?rate:Fit_rate.t -> ?ns_per_cycle:float -> Scan.t -> float
(** Equation 5: P(Failure) ≈ F·g·e^{−gw}, the absolute per-run failure
    probability under real-world soft-error rates.  The exposure window
    [w] is {!Scan.fault_space_size}, the fault model's space.  Defaults:
    {!Fit_rate.mean_published} and 1 ns per cycle (1 GHz). *)

val extrapolated_failures : Sampler.estimate -> float
(** Corollary 2 of Pitfall 3:
    F_extrapolated = population × F_sampled / N_sampled. *)

val extrapolated_outcome :
  Sampler.estimate -> Outcome.t -> float
(** Same extrapolation applied to an individual failure mode (the
    generalisation of Section VI-B). *)
