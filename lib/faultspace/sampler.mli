(** Fault sampling (Sections III-B, III-E and V-C of the paper), for
    every fault model.

    A sampler {e draws}: it maps N random picks to the experiment slots
    of a {!Faultspace.cell} they fall in ([Faultspace.cell.locate]), or
    to "a-priori benign".  A {e resolver} then turns the draw into an
    {!estimate}: {!conduct} runs the distinct slots on the cell's own
    session provider, {!read} looks them up in a finished scan of the
    same cell.  The machine is
    deterministic and pruning is lossless, so both resolvers give the
    same estimate for the same draw, field for field (tested for every
    model).

    Three samplers are provided:

    - {!uniform_raw} — the correct procedure: coordinates drawn uniformly
      from the raw, unpruned fault space.  Samples landing in the same
      class share one conducted experiment, but {e every sample counts}
      in the estimate (avoiding Pitfall 2).
    - {!uniform_effective} — the Corollary-1-aware refinement: the
      population is reduced to the coordinates {e not} known a-priori
      benign (w′ ≤ w); results must then be extrapolated to w′.
    - {!biased_per_class} — the {e wrong} procedure that Pitfall 2 warns
      about: classes sampled uniformly, ignoring their weights.
      Included to reproduce the bias quantitatively. *)

type estimate = {
  population : int;
      (** Size of the sampled population: w for {!uniform_raw} and
          {!biased_per_class}, w′ for {!uniform_effective}. *)
  samples : int;  (** Number of samples drawn, N_sampled. *)
  failures : int;  (** Failing samples, F_sampled. *)
  outcome_counts : (Outcome.t * int) list;
      (** Sample counts per outcome (sums to [samples]). *)
  distinct : int;
      (** Distinct experiment slots the draw touches (≤ samples: samples
          in one class share its experiment, a-priori-benign samples
          need none) — the experiments {!conduct} runs, and the same
          count when {!read} from a scan. *)
}

val failure_fraction : estimate -> float
(** F_sampled / N_sampled. *)

type draw = {
  population : int;  (** The estimate's population. *)
  slots : int option array;
      (** Per sample, in draw order: its experiment slot [8 × class +
          bit], or [None] for an a-priori-benign coordinate. *)
}

val uniform_raw : Prng.t -> samples:int -> Faultspace.cell -> draw
(** Correct raw-space sampling: per sample, a cycle uniform in
    [\[1, Δt\]], then a row uniform in [\[0, rows)], located in the
    cell.  A seed therefore draws the same coordinates for every model
    with the same axes. *)

val uniform_effective : Prng.t -> samples:int -> Faultspace.cell -> draw
(** Sampling restricted to the effective population w′ (experiment
    slots only, padding excluded), weighted by class size. *)

val biased_per_class : Prng.t -> samples:int -> Faultspace.cell -> draw
(** Pitfall 2: a class drawn uniformly regardless of weight, then one of
    its 8 slots (a skip draw can hit a padding slot, which resolves to
    {!Outcome.No_effect}).  The [population] reported is w (what a naive
    evaluator would assume). *)

val conduct : Faultspace.cell -> draw -> estimate
(** Resolve a draw by conducting its distinct slots in [t_end] order
    with {!Faultspace.conduct_slots}, on one session over the cell's
    provider ({!Faultspace.with_stride} picks its stride). *)

val read : Scan.t -> draw -> estimate
(** Resolve a draw from a finished scan of the same cell, e.g. a
    parallel or journal-resumed engine campaign: sample [i] takes
    [scan.experiments.(slot)].  Conducts nothing. *)
