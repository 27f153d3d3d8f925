(* Sampling-based campaigns done right and wrong (Pitfalls 2 and 3):

   - the correct procedure samples coordinates uniformly from the raw
     fault space and extrapolates failure counts to the population size;
   - sampling def/use classes uniformly (ignoring their weights) biases
     the estimate — Pitfall 2;
   - comparing raw sampled counts across programs with different
     fault-space sizes inverts verdicts — Pitfall 3, corollary 2.

     dune exec examples/sampling_pitfalls.exe *)

let () =
  let image = Mbox1.baseline () in
  let golden = Golden.run image in
  let cell = Faultspace.of_golden Faultspace.Bitflip_mem golden in
  Format.printf "%a@.@." Golden.pp_summary golden;

  (* Ground truth from the full pruned scan. *)
  let scan = Scan.pruned golden in
  let truth_fraction =
    float_of_int (Metrics.failure_count scan)
    /. float_of_int (Scan.fault_space_size scan)
  in
  Format.printf "ground truth: F = %d of w = %d (%.5f)@.@."
    (Metrics.failure_count scan)
    (Scan.fault_space_size scan)
    truth_fraction;

  (* Correct and biased estimators at increasing sample sizes. *)
  Format.printf "%8s  %22s  %22s@." "N" "uniform raw (correct)"
    "per-class (pitfall 2)";
  List.iter
    (fun n ->
      let rng1 = Prng.create ~seed:1L in
      let rng2 = Prng.create ~seed:2L in
      let correct = Sampler.(conduct cell (uniform_raw rng1 ~samples:n cell)) in
      let biased = Sampler.(conduct cell (biased_per_class rng2 ~samples:n cell)) in
      let ci est =
        Confidence.wilson ~fails:est.Sampler.failures
          ~trials:est.Sampler.samples ~confidence:0.95
      in
      Format.printf "%8d  %10.5f %a  %10.5f %a@." n
        (Sampler.failure_fraction correct)
        Confidence.pp_interval (ci correct)
        (Sampler.failure_fraction biased)
        Confidence.pp_interval (ci biased))
    [ 500; 2000; 8000 ];

  (* How many samples for a +-1% estimate at 95% confidence? *)
  Format.printf "@.samples for a +-1%% interval at 95%%: %d@."
    (Confidence.sample_size ~half_width:0.01 ~confidence:0.95
       ~worst_case_p:truth_fraction);

  (* Corollary 2: raw counts vs extrapolation across two variants. *)
  let hardened = Mbox1.sum_dmr () in
  let golden_h = Golden.run hardened in
  let scan_h = Scan.pruned golden_h in
  let rng = Prng.create ~seed:3L in
  let cell_h = Faultspace.of_golden Faultspace.Bitflip_mem golden_h in
  let est_b = Sampler.(conduct cell (uniform_raw rng ~samples:4000 cell)) in
  let est_h = Sampler.(conduct cell_h (uniform_raw rng ~samples:4000 cell_h)) in
  Format.printf "@.with N = 4000 samples each:@.";
  Format.printf "  baseline: F_sampled = %4d -> F_extrapolated = %10.0f (true %d)@."
    est_b.Sampler.failures
    (Metrics.extrapolated_failures est_b)
    (Metrics.failure_count scan);
  Format.printf "  hardened: F_sampled = %4d -> F_extrapolated = %10.0f (true %d)@."
    est_h.Sampler.failures
    (Metrics.extrapolated_failures est_h)
    (Metrics.failure_count scan_h);
  Format.printf "  raw-count ratio %.2f vs extrapolated ratio %.2f@."
    (float_of_int est_h.Sampler.failures /. float_of_int est_b.Sampler.failures)
    (Compare.ratio_sampled ~baseline:est_b ~hardened:est_h);
  Format.printf
    "@.The raw sampled counts are incomparable across variants — only the@.\
     extrapolated counts order the variants correctly (Section V-C).@."
