type pitfall1 = {
  unweighted_coverage : float;
  weighted_coverage : float;
  delta_percent_points : float;
  unweighted_failures : int;
  weighted_failures : int;
}

let analyze_pitfall1 scan =
  let unweighted_coverage =
    Metrics.coverage ~policy:Accounting.pitfall1 scan
  in
  let weighted_coverage = Metrics.coverage ~policy:Accounting.correct scan in
  {
    unweighted_coverage;
    weighted_coverage;
    delta_percent_points = 100.0 *. (weighted_coverage -. unweighted_coverage);
    unweighted_failures = Metrics.failure_count ~policy:Accounting.pitfall1 scan;
    weighted_failures = Metrics.failure_count ~policy:Accounting.correct scan;
  }

type pitfall2 = {
  ground_truth_failure_fraction : float;
  correct_estimate : float;
  biased_estimate : float;
  bias : float;
}

let analyze_pitfall2 ~scan ~correct ~biased =
  let w = float_of_int (Scan.fault_space_size scan) in
  let truth = float_of_int (Metrics.failure_count scan) /. w in
  let correct_estimate = Sampler.failure_fraction correct in
  let biased_estimate = Sampler.failure_fraction biased in
  {
    ground_truth_failure_fraction = truth;
    correct_estimate;
    biased_estimate;
    bias =
      Float.abs (biased_estimate -. truth)
      -. Float.abs (correct_estimate -. truth);
  }

type pitfall3 = {
  baseline_coverage : float;
  hardened_coverage : float;
  coverage_says : Compare.verdict;
  failure_ratio : float;
  truth_says : Compare.verdict;
  misleading : bool;
}

let analyze_pitfall3 ~baseline ~hardened =
  let baseline_coverage = Metrics.coverage baseline in
  let hardened_coverage = Metrics.coverage hardened in
  let coverage_says = Compare.coverage_comparison ~baseline ~hardened () in
  let failure_ratio = Compare.ratio ~baseline ~hardened in
  let truth_says = Compare.verdict_of_ratio failure_ratio in
  {
    baseline_coverage;
    hardened_coverage;
    coverage_says;
    failure_ratio;
    truth_says;
    misleading = coverage_says <> truth_says;
  }

type dilution = {
  baseline_failures : int;
  hardened_failures : int;
  baseline_space : int;
  hardened_space : int;
}

let dilution_delusion ~baseline ~hardened =
  let f_b = Metrics.failure_count baseline
  and f_h = Metrics.failure_count hardened in
  if f_h > f_b && Metrics.coverage_improves ~baseline hardened then
    Some
      {
        baseline_failures = f_b;
        hardened_failures = f_h;
        baseline_space = Metrics.experiment_total baseline;
        hardened_space = Metrics.experiment_total hardened;
      }
  else None

let pp_dilution ppf d =
  Format.fprintf ppf
    "F %d/%d -> %d/%d: failures x%.3f while coverage %.4f%% -> %.4f%%"
    d.baseline_failures d.baseline_space d.hardened_failures d.hardened_space
    (float_of_int d.hardened_failures /. float_of_int d.baseline_failures)
    (100.0
    *. (1.0
       -. float_of_int d.baseline_failures /. float_of_int d.baseline_space))
    (100.0
    *. (1.0
       -. float_of_int d.hardened_failures /. float_of_int d.hardened_space))

let pp_pitfall1 ppf p =
  Format.fprintf ppf
    "coverage unweighted %.2f%% vs weighted %.2f%% (Δ %.1f pp); failures \
     unweighted %d vs weighted %d"
    (100.0 *. p.unweighted_coverage)
    (100.0 *. p.weighted_coverage)
    p.delta_percent_points p.unweighted_failures p.weighted_failures

let pp_pitfall3 ppf p =
  Format.fprintf ppf
    "coverage %.2f%% -> %.2f%% says %a; failure ratio r = %.3f says %a%s"
    (100.0 *. p.baseline_coverage)
    (100.0 *. p.hardened_coverage)
    Compare.pp_verdict p.coverage_says p.failure_ratio Compare.pp_verdict
    p.truth_says
    (if p.misleading then " [MISLEADING]" else "")
