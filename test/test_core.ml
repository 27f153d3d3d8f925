(* Tests for the paper's contribution: accounting policies, metrics,
   comparison, MWTF and the three pitfall analyses — pinned to the exact
   Section-IV numbers of the "Hi" Gedankenexperiment. *)

let hi_golden = lazy (Golden.run (Hi.program ()))
let hi_scan =
  lazy Faultspace.(scan (of_golden Bitflip_mem (Lazy.force hi_golden)))
let dft_golden = lazy (Golden.run (Hi.dft ()))
let dft_scan =
  lazy Faultspace.(scan ~variant:"dft" (of_golden Bitflip_mem (Lazy.force dft_golden)))
let dft'_scan =
  lazy Faultspace.(scan ~variant:"dft'" (analyse Bitflip_mem (Hi.dft' ())))

let close what expected actual =
  if Float.abs (expected -. actual) > 1e-9 then
    Alcotest.failf "%s: expected %g, got %g" what expected actual

(* ------------------------------------------------------------------ *)
(* Metrics on Hi (Section IV numbers)                                 *)
(* ------------------------------------------------------------------ *)

let test_hi_baseline_coverage () =
  (* c_baseline = 1 - 48/128 = 62.5 % *)
  close "coverage" 0.625 (Metrics.coverage (Lazy.force hi_scan))

let test_hi_dft_coverage () =
  (* c_hardened = 1 - 48/192 = 75.0 % *)
  close "DFT coverage" 0.75 (Metrics.coverage (Lazy.force dft_scan));
  Alcotest.(check int) "F unchanged" 48
    (Metrics.failure_count (Lazy.force dft_scan))

let test_hi_dft'_coverage () =
  (* DFT' restores 75 % even under full-space weighting, and keeps its
     inflation under the activated-only restriction, because the
     dilution loads are genuine activations. *)
  close "DFT' coverage" 0.75 (Metrics.coverage (Lazy.force dft'_scan));
  Alcotest.(check int) "F unchanged" 48
    (Metrics.failure_count (Lazy.force dft'_scan));
  let activated_base =
    Metrics.coverage ~policy:Accounting.activated_only (Lazy.force hi_scan)
  in
  let activated_dft' =
    Metrics.coverage ~policy:Accounting.activated_only (Lazy.force dft'_scan)
  in
  Alcotest.(check bool) "activated-only coverage also inflated" true
    (activated_dft' > activated_base)

let test_hi_policies () =
  let scan = Lazy.force hi_scan in
  (* Unweighted, conducted-only: all 16 experiments fail. *)
  close "pitfall-1 coverage" 0.0
    (Metrics.coverage ~policy:Accounting.pitfall1 scan);
  Alcotest.(check int) "unweighted F" 16
    (Metrics.failure_count ~policy:Accounting.pitfall1 scan);
  (* Weighted, conducted-only: 48 of 48 conducted coordinates fail. *)
  close "activated-only coverage" 0.0
    (Metrics.coverage ~policy:Accounting.activated_only scan);
  Alcotest.(check int) "activated population" 48
    (Metrics.experiment_total ~policy:Accounting.activated_only scan)

let test_no_effect_count () =
  let scan = Lazy.force hi_scan in
  Alcotest.(check int) "benign coordinates" 80 (Metrics.no_effect_count scan);
  Alcotest.(check int) "failures + benign = w" 128
    (Metrics.no_effect_count scan + Metrics.failure_count scan)

(* The histogram by a plain fold per outcome: [Outcome.all] order, zero
   counts dropped, and the a-priori benign weight added to No_effect only
   under Full_space x Weighted. *)
let histogram_by_fold (policy : Accounting.t) (scan : Scan.t) =
  let weight e =
    match policy.Accounting.weighting with
    | Accounting.Weighted -> Scan.experiment_weight e
    | Accounting.Unweighted -> min 1 (Scan.experiment_weight e)
  in
  let benign =
    match (policy.Accounting.population, policy.Accounting.weighting) with
    | Accounting.Full_space, Accounting.Weighted -> scan.Scan.benign_weight
    | _ -> 0
  in
  List.filter_map
    (fun o ->
      let n =
        Array.fold_left
          (fun acc e -> if e.Scan.outcome = o then acc + weight e else acc)
          (if o = Outcome.No_effect then benign else 0)
          scan.Scan.experiments
      in
      if n > 0 then Some (o, n) else None)
    Outcome.all

let test_outcome_histogram () =
  let scan = Lazy.force hi_scan in
  let hist = Metrics.outcome_histogram scan in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 hist in
  Alcotest.(check int) "histogram covers w" 128 total;
  Alcotest.(check (option int)) "sdc mass" (Some 48)
    (List.assoc_opt Outcome.Sdc hist);
  (* hi+dft under skip pads its slots with weight-0 experiments. *)
  let skip = Faultspace.(scan (analyse Skip (Hi.dft ()))) in
  Alcotest.(check bool) "skip cell has padding slots" true
    (Array.exists
       (fun e -> Scan.experiment_weight e = 0)
       skip.Scan.experiments);
  let histogram =
    Alcotest.testable
      (fun ppf hist ->
        List.iter (fun (o, n) -> Format.fprintf ppf "%a=%d " Outcome.pp o n) hist)
      ( = )
  in
  List.iter
    (fun (label, scan) ->
      List.iter
        (fun policy ->
          Alcotest.check histogram
            (Format.asprintf "%s %a" label Accounting.pp policy)
            (histogram_by_fold policy scan)
            (Metrics.outcome_histogram ~policy scan))
        Accounting.
          [
            correct;
            pitfall1;
            activated_only;
            { weighting = Unweighted; population = Full_space };
          ])
    [ ("hi", scan); ("hi+dft", Lazy.force dft_scan); ("hi+dft skip", skip) ]

let test_failure_probability () =
  let scan = Lazy.force hi_scan in
  let p = Metrics.failure_probability scan in
  (* F*g with F=48 bit-cycles, g~1.58e-29 => ~7.6e-28. *)
  Alcotest.(check bool) "magnitude" true (p > 5e-28 && p < 1e-27);
  (* Proportional to F: DFT has identical F hence identical P. *)
  close "dilution cannot change P(Failure)" p
    (Metrics.failure_probability (Lazy.force dft_scan))

let test_extrapolation () =
  let g = Lazy.force hi_golden in
  let rng = Prng.create ~seed:3L in
  let cell = Faultspace.of_golden Faultspace.Bitflip_mem g in
  let est = Sampler.(conduct cell (uniform_raw rng ~samples:6000 cell)) in
  let extrapolated = Metrics.extrapolated_failures est in
  Alcotest.(check bool) "near true F=48" true
    (Float.abs (extrapolated -. 48.0) < 5.0);
  let sdc = Metrics.extrapolated_outcome est Outcome.Sdc in
  Alcotest.(check bool) "per-outcome extrapolation consistent" true
    (Float.abs (sdc -. extrapolated) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Comparison                                                         *)
(* ------------------------------------------------------------------ *)

let test_ratio_dilution () =
  let r =
    Compare.ratio ~baseline:(Lazy.force hi_scan) ~hardened:(Lazy.force dft_scan)
  in
  close "r = 1 for dilution" 1.0 r;
  Alcotest.(check bool) "indistinguishable" true
    (Compare.verdict_of_ratio r = Compare.Indistinguishable)

let test_verdicts () =
  Alcotest.(check bool) "improves" true
    (Compare.verdict_of_ratio 0.5 = Compare.Improves);
  Alcotest.(check bool) "worsens" true
    (Compare.verdict_of_ratio 5.0 = Compare.Worsens);
  Alcotest.(check bool) "nan" true
    (Compare.verdict_of_ratio Float.nan = Compare.Indistinguishable)

let test_coverage_comparison_fooled () =
  (* Coverage says DFT improves; failure counts say indistinguishable. *)
  let baseline = Lazy.force hi_scan and hardened = Lazy.force dft_scan in
  Alcotest.(check bool) "coverage fooled" true
    (Compare.coverage_comparison ~baseline ~hardened () = Compare.Improves);
  Alcotest.(check bool) "failure metric not fooled" true
    (Compare.failure_comparison ~baseline ~hardened
    = Compare.Indistinguishable)

let test_ratio_sampled () =
  let g_base = Lazy.force hi_golden in
  let g_dft = Lazy.force dft_golden in
  let rng = Prng.create ~seed:11L in
  let sample g =
    let cell = Faultspace.of_golden Faultspace.Bitflip_mem g in
    Sampler.(conduct cell (uniform_raw rng ~samples:8000 cell))
  in
  let est_base = sample g_base in
  let est_dft = sample g_dft in
  let r = Compare.ratio_sampled ~baseline:est_base ~hardened:est_dft in
  Alcotest.(check bool) "sampled ratio near 1" true (Float.abs (r -. 1.0) < 0.25)

(* ------------------------------------------------------------------ *)
(* MWTF                                                               *)
(* ------------------------------------------------------------------ *)

let test_mwtf () =
  let base = Lazy.force hi_scan and dft = Lazy.force dft_scan in
  let m_base = Mwtf.runs_to_failure base in
  Alcotest.(check bool) "finite and huge" true
    (Float.is_finite m_base && m_base > 1e20);
  (* Same F, same work unit => same MWTF: relative = 1. *)
  close "dilution does not improve MWTF" 1.0
    (Mwtf.relative ~baseline:base ~hardened:dft ())

let test_mwtf_failure_free () =
  (* A scan with zero failures has infinite MWTF. *)
  let scan =
    { (Lazy.force hi_scan) with
      Scan.experiments =
        Array.map
          (fun e -> { e with Scan.outcome = Outcome.No_effect })
          (Lazy.force hi_scan).Scan.experiments }
  in
  Alcotest.(check bool) "infinite" true
    (Mwtf.runs_to_failure scan = infinity)

(* ------------------------------------------------------------------ *)
(* Pitfall analyses                                                   *)
(* ------------------------------------------------------------------ *)

let test_pitfall1_analysis () =
  let p = Pitfalls.analyze_pitfall1 (Lazy.force hi_scan) in
  close "unweighted" 0.0 p.Pitfalls.unweighted_coverage;
  close "weighted" 0.625 p.Pitfalls.weighted_coverage;
  close "delta" 62.5 p.Pitfalls.delta_percent_points;
  Alcotest.(check int) "unweighted F" 16 p.Pitfalls.unweighted_failures;
  Alcotest.(check int) "weighted F" 48 p.Pitfalls.weighted_failures

let test_pitfall2_analysis () =
  let g = Lazy.force hi_golden in
  let scan = Lazy.force hi_scan in
  let rng = Prng.create ~seed:9L in
  let cell = Faultspace.of_golden Faultspace.Bitflip_mem g in
  let correct = Sampler.(conduct cell (uniform_raw rng ~samples:3000 cell)) in
  let biased = Sampler.(conduct cell (biased_per_class rng ~samples:3000 cell)) in
  let p = Pitfalls.analyze_pitfall2 ~scan ~correct ~biased in
  close "truth" 0.375 p.Pitfalls.ground_truth_failure_fraction;
  close "biased = 1.0 on Hi" 1.0 p.Pitfalls.biased_estimate;
  Alcotest.(check bool) "bias is positive" true (p.Pitfalls.bias > 0.5)

let test_pitfall3_analysis () =
  let p =
    Pitfalls.analyze_pitfall3 ~baseline:(Lazy.force hi_scan)
      ~hardened:(Lazy.force dft_scan)
  in
  Alcotest.(check bool) "coverage says improves" true
    (p.Pitfalls.coverage_says = Compare.Improves);
  Alcotest.(check bool) "truth says indistinguishable" true
    (p.Pitfalls.truth_says = Compare.Indistinguishable);
  Alcotest.(check bool) "flagged misleading" true p.Pitfalls.misleading;
  close "ratio" 1.0 p.Pitfalls.failure_ratio

let test_pitfall_pps () =
  (* The printers must at least render without exception and mention the
     key numbers. *)
  let s1 =
    Format.asprintf "%a" Pitfalls.pp_pitfall1
      (Pitfalls.analyze_pitfall1 (Lazy.force hi_scan))
  in
  Alcotest.(check bool) "pitfall1 text" true
    (Astring_contains.contains s1 "62.50%");
  let s3 =
    Format.asprintf "%a" Pitfalls.pp_pitfall3
      (Pitfalls.analyze_pitfall3 ~baseline:(Lazy.force hi_scan)
         ~hardened:(Lazy.force dft_scan))
  in
  Alcotest.(check bool) "pitfall3 flags" true
    (Astring_contains.contains s3 "MISLEADING")

let test_accounting_pp () =
  Alcotest.(check string) "correct" "weighted/full-space"
    (Format.asprintf "%a" Accounting.pp Accounting.correct);
  Alcotest.(check string) "pitfall1" "unweighted/conducted-only"
    (Format.asprintf "%a" Accounting.pp Accounting.pitfall1)

let suite =
  ( "core",
    [
      Alcotest.test_case "hi baseline coverage 62.5%" `Quick
        test_hi_baseline_coverage;
      Alcotest.test_case "hi DFT coverage 75%" `Quick test_hi_dft_coverage;
      Alcotest.test_case "hi DFT' coverage 75%" `Quick test_hi_dft'_coverage;
      Alcotest.test_case "accounting policies on hi" `Quick test_hi_policies;
      Alcotest.test_case "no-effect counts" `Quick test_no_effect_count;
      Alcotest.test_case "outcome histogram" `Quick test_outcome_histogram;
      Alcotest.test_case "failure probability (Equation 5)" `Quick
        test_failure_probability;
      Alcotest.test_case "extrapolation (corollary 2)" `Quick test_extrapolation;
      Alcotest.test_case "dilution ratio = 1" `Quick test_ratio_dilution;
      Alcotest.test_case "verdicts" `Quick test_verdicts;
      Alcotest.test_case "coverage comparison fooled" `Quick
        test_coverage_comparison_fooled;
      Alcotest.test_case "sampled ratio" `Quick test_ratio_sampled;
      Alcotest.test_case "mwtf" `Quick test_mwtf;
      Alcotest.test_case "mwtf failure-free" `Quick test_mwtf_failure_free;
      Alcotest.test_case "pitfall 1 analysis" `Quick test_pitfall1_analysis;
      Alcotest.test_case "pitfall 2 analysis" `Quick test_pitfall2_analysis;
      Alcotest.test_case "pitfall 3 analysis" `Quick test_pitfall3_analysis;
      Alcotest.test_case "pitfall printers" `Quick test_pitfall_pps;
      Alcotest.test_case "accounting printers" `Quick test_accounting_pp;
    ] )
