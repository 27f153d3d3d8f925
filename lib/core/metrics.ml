let weight_of ~(policy : Accounting.t) e =
  match policy.Accounting.weighting with
  | Accounting.Weighted -> Scan.experiment_weight e
  | Accounting.Unweighted ->
      (* one per experiment; a weight-0 padding slot is no experiment *)
      min 1 (Scan.experiment_weight e)

let failure_count ?(policy = Accounting.correct) (scan : Scan.t) =
  Array.fold_left
    (fun acc e ->
      if Outcome.is_failure e.Scan.outcome then acc + weight_of ~policy e
      else acc)
    0 scan.Scan.experiments

let conducted_total ~policy (scan : Scan.t) =
  Array.fold_left (fun acc e -> acc + weight_of ~policy e) 0 scan.Scan.experiments

let experiment_total ?(policy = Accounting.correct) (scan : Scan.t) =
  match (policy.Accounting.population, policy.Accounting.weighting) with
  | Accounting.Full_space, Accounting.Weighted -> Scan.fault_space_size scan
  | Accounting.Full_space, Accounting.Unweighted ->
      (* No meaningful "unweighted full space" exists: a-priori benign
         regions were never split into experiments.  Count conducted
         experiments plus one unit per benign class is not well-defined
         either, so we fall back to conducted experiments — this is what
         papers that fall into Pitfall 1 implicitly do. *)
      conducted_total ~policy scan
  | Accounting.Conducted_only, _ -> conducted_total ~policy scan

let no_effect_count ?(policy = Accounting.correct) (scan : Scan.t) =
  let conducted_benign =
    Array.fold_left
      (fun acc e ->
        if Outcome.is_benign e.Scan.outcome then acc + weight_of ~policy e
        else acc)
      0 scan.Scan.experiments
  in
  match (policy.Accounting.population, policy.Accounting.weighting) with
  | Accounting.Full_space, Accounting.Weighted ->
      conducted_benign + scan.Scan.benign_weight
  | Accounting.Full_space, Accounting.Unweighted
  | Accounting.Conducted_only, _ ->
      conducted_benign

let coverage ?(policy = Accounting.correct) scan =
  let n = experiment_total ~policy scan in
  if n = 0 then 1.0
  else 1.0 -. (float_of_int (failure_count ~policy scan) /. float_of_int n)

let outcome_histogram ?(policy = Accounting.correct) (scan : Scan.t) =
  let counts = Outcome.tally_create () in
  Array.iter
    (fun e ->
      Outcome.tally_add_weight counts e.Scan.outcome (weight_of ~policy e))
    scan.Scan.experiments;
  (match (policy.Accounting.population, policy.Accounting.weighting) with
  | Accounting.Full_space, Accounting.Weighted ->
      Outcome.tally_add_weight counts Outcome.No_effect scan.Scan.benign_weight
  | _ -> ());
  Outcome.tally_to_list counts

let failure_probability ?(rate = Fit_rate.mean_published)
    ?(ns_per_cycle = 1.0) (scan : Scan.t) =
  let f = float_of_int (failure_count ~policy:Accounting.correct scan) in
  let g = Fit_rate.per_bit_per_ns rate in
  (* The exposure window is the model's whole space (bit-cycles for
     the memory and register models), not the memory geometry. *)
  let w_ns_bits = float_of_int (Scan.fault_space_size scan) *. ns_per_cycle in
  (* Equation 5: F·g·e^{-gw}.  F is in bit·cycles; one cycle is
     ns_per_cycle, so the conversion factor is applied to g·w only — F·g
     already carries 1/(ns·bit) × bit·cycle, normalised per cycle. *)
  f *. ns_per_cycle *. g *. exp (-.(g *. w_ns_bits))

let extrapolated_failures (e : Sampler.estimate) =
  if e.Sampler.samples = 0 then 0.0
  else
    float_of_int e.Sampler.population
    *. float_of_int e.Sampler.failures
    /. float_of_int e.Sampler.samples

let extrapolated_outcome (e : Sampler.estimate) outcome =
  if e.Sampler.samples = 0 then 0.0
  else
    let count =
      Option.value ~default:0 (List.assoc_opt outcome e.Sampler.outcome_counts)
    in
    float_of_int e.Sampler.population
    *. float_of_int count
    /. float_of_int e.Sampler.samples
