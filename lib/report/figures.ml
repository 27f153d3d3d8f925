let heading title =
  let bar = String.make (String.length title) '=' in
  Printf.sprintf "%s\n%s\n" title bar

(* ------------------------------------------------------------------ *)
(* Table I                                                            *)
(* ------------------------------------------------------------------ *)

let table1 () =
  let rate = Fit_rate.mean_published in
  let cycles = 1_000_000_000 in
  let bits = 1 lsl 20 in
  let lambda = Fit_rate.lambda rate ~cycles ~ns_per_cycle:1.0 ~bits in
  let t =
    Table.create ~columns:[ ("k", Table.Right); ("P(k faults)", Table.Right) ]
  in
  for k = 0 to 5 do
    Table.row t [ string_of_int k; Printf.sprintf "%.4e" (Poisson.pmf ~lambda k) ]
  done;
  Table.rule t;
  (* 1 - cdf underflows at this lambda; the k=2..8 pmf sum is exact to
     double precision. *)
  let tail = ref 0.0 in
  for k = 2 to 8 do
    tail := !tail +. Poisson.pmf ~lambda k
  done;
  Table.row t [ ">=2"; Printf.sprintf "%.4e" !tail ];
  heading
    "Table I: Poisson probabilities for k independent faults per run"
  ^ Printf.sprintf
      "g = %.3f FIT/Mbit = %.3e /(ns*bit); benchmark: dt = 1e9 cycles @ \
       1 GHz, dm = 2^20 bit; lambda = g*dt*dm = %.3e\n\n"
      (Fit_rate.to_float rate)
      (Fit_rate.per_bit_per_ns rate)
      lambda
  ^ Table.render t
  ^ Printf.sprintf
      "\nP(2 faults) / P(1 fault) = %.2e: multi-fault runs are negligible;\n\
       injecting a single fault per experiment is justified (Section III-A).\n"
      (Poisson.pmf ~lambda 2 /. Poisson.pmf ~lambda 1)

(* ------------------------------------------------------------------ *)
(* Figure 1                                                           *)
(* ------------------------------------------------------------------ *)

let figure1 () =
  (* The paper's illustration: one byte written at cycle 4 and read back
     at cycle 11, in a 12-cycle run. *)
  let trace = Trace.create ~ram_size:2 in
  Trace.add trace ~cycle:4 ~addr:0 ~width:1 ~kind:Trace.Write;
  Trace.add trace ~cycle:11 ~addr:0 ~width:1 ~kind:Trace.Read;
  Trace.seal trace ~total_cycles:12;
  let defuse = Defuse.analyze trace in
  let classes = Defuse.classes defuse in
  let t =
    Table.create
      ~columns:
        [ ("byte", Table.Right); ("interval", Table.Left);
          ("kind", Table.Left); ("weight/bit", Table.Right) ]
  in
  Array.iter
    (fun (c : Defuse.byte_class) ->
      Table.row t
        [
          string_of_int c.Defuse.byte;
          Printf.sprintf "[%d, %d]" c.Defuse.t_start c.Defuse.t_end;
          Format.asprintf "%a" Defuse.pp_class_kind c.Defuse.kind;
          string_of_int (Defuse.weight c);
        ])
    classes;
  heading "Figure 1: def/use pruning of an illustrative fault space"
  ^ Faultmap.access_map ~trace ~defuse
  ^ "\n" ^ Table.render t
  ^ Printf.sprintf
      "\nraw fault space: %d coordinates (12 cycles x 16 bits; the paper \
       draws 9 bits => 108);\nexperiments after pruning: %d (the paper's \
       example: 8);\nknown-benign coordinates: %d; pruning factor %.0f.\n"
      (Defuse.fault_space_size defuse)
      (Defuse.experiment_count defuse)
      (Defuse.known_benign_weight defuse)
      (Defuse.pruning_factor defuse)

(* ------------------------------------------------------------------ *)
(* Figure 3 / Section IV                                              *)
(* ------------------------------------------------------------------ *)

let scan_stats name scan =
  Printf.sprintf
    "%-12s dt=%3d cycles  dm=%2d bytes  w=%4d  F(weighted)=%3d  coverage=%.1f%%\n"
    name scan.Scan.cycles scan.Scan.ram_bytes
    (Scan.fault_space_size scan)
    (Metrics.failure_count scan)
    (100.0 *. Metrics.coverage scan)

let figure3 () =
  let variants =
    [
      ("baseline", Hi.program ());
      ("DFT", Hi.dft ());
      ("DFT'", Hi.dft' ());
      ("DFT-mem", Hi.dft_memory ());
    ]
  in
  let scans =
    List.map
      (fun (name, image) ->
        let golden = Golden.run image in
        (name, golden, Scan.pruned ~variant:name golden))
      variants
  in
  let maps =
    List.concat_map
      (fun (name, golden, scan) ->
        [
          Printf.sprintf "\n-- %s (output %S) --\n" name golden.Golden.output;
          Faultmap.outcome_map golden scan;
        ])
      scans
  in
  let base_scan =
    match scans with (_, _, s) :: _ -> s | [] -> assert false
  in
  let activated =
    List.map
      (fun (name, _, scan) ->
        Printf.sprintf
          "%-12s activated-only coverage (Barbosa et al. restriction): %.1f%%\n"
          name
          (100.0 *. Metrics.coverage ~policy:Accounting.activated_only scan))
      scans
  in
  heading "Figure 3 / Section IV: the dilution delusion on the Hi program"
  ^ String.concat "" (List.map (fun (n, _, s) -> scan_stats n s) scans)
  ^ String.concat "" maps
  ^ "\n" ^ Faultmap.legend ^ "\n"
  ^ String.concat "" activated
  ^ Printf.sprintf
      "\nEvery dilution variant leaves the absolute failure count at F = %d\n\
       while inflating coverage — coverage is unfit for program comparison\n\
       (r = F_hardened/F_baseline = %.2f says: no improvement).\n"
      (Metrics.failure_count base_scan)
      (Compare.ratio ~baseline:base_scan
         ~hardened:(match scans with _ :: (_, _, s) :: _ -> s | _ -> base_scan))

(* ------------------------------------------------------------------ *)
(* Figure 2 (campaign-backed)                                         *)
(* ------------------------------------------------------------------ *)

let figure2 pairs =
  let buf = Buffer.create 4096 in
  let panel title render =
    Buffer.add_string buf ("\n-- " ^ title ^ " --\n");
    Buffer.add_string buf render
  in
  let bars f =
    Barchart.render
      (List.concat_map
         (fun (name, sb, sh) ->
           [ (name ^ "/baseline", f sb); (name ^ "/sum+dmr", f sh) ])
         pairs)
  in
  Buffer.add_string buf
    (heading "Figure 2: metrics for the benchmark pairs, all accountings");
  panel "(a) fault coverage, unweighted (Pitfall 1)"
    (bars (fun s ->
         100.0 *. Metrics.coverage ~policy:Accounting.pitfall1 s));
  panel "(b) fault coverage, weighted"
    (bars (fun s -> 100.0 *. Metrics.coverage s));
  panel
    "(c) fault coverage, weighted but conducted-only (Barbosa et al. \
     restriction) [reconstructed panel]"
    (bars (fun s ->
         100.0 *. Metrics.coverage ~policy:Accounting.activated_only s));
  panel "(d) absolute failure counts, unweighted"
    (bars (fun s ->
         float_of_int (Metrics.failure_count ~policy:Accounting.pitfall1 s)));
  panel "(e) absolute failure counts, weighted (the objective metric)"
    (bars (fun s -> float_of_int (Metrics.failure_count s)));
  panel
    "(f) absolute failure probability per run, Equation 5 [reconstructed \
     panel]"
    (bars (fun s -> Metrics.failure_probability s *. 1e24));
  Buffer.add_string buf
    "   (unit: 1e-24 per run at 0.057 FIT/Mbit, 1 GHz)\n";
  let t =
    Table.create
      ~columns:
        [ ("benchmark", Table.Left); ("variant", Table.Left);
          ("runtime (cycles)", Table.Right); ("memory (bytes)", Table.Right) ]
  in
  List.iter
    (fun (name, sb, sh) ->
      Table.row t
        [ name; "baseline"; string_of_int sb.Scan.cycles;
          string_of_int sb.Scan.ram_bytes ];
      Table.row t
        [ name; "sum+dmr"; string_of_int sh.Scan.cycles;
          string_of_int sh.Scan.ram_bytes ])
    pairs;
  panel "(g) runtime and memory usage" (Table.render t);
  Buffer.add_string buf "\n-- comparison ratios (Section V) --\n";
  List.iter
    (fun (name, sb, sh) ->
      let p3 = Pitfalls.analyze_pitfall3 ~baseline:sb ~hardened:sh in
      Buffer.add_string buf
        (Format.asprintf "%-10s %a@." name Pitfalls.pp_pitfall3 p3))
    pairs;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Other artifacts                                                    *)
(* ------------------------------------------------------------------ *)

let pruning_stats goldens =
  let t =
    Table.create
      ~columns:
        [ ("benchmark", Table.Left); ("raw fault space w", Table.Right);
          ("experiments", Table.Right); ("factor", Table.Right) ]
  in
  List.iter
    (fun (name, g) ->
      let d = g.Golden.defuse in
      Table.row t
        [
          name;
          string_of_int (Defuse.fault_space_size d);
          string_of_int (Defuse.experiment_count d);
          Printf.sprintf "%.0f" (Defuse.pruning_factor d);
        ])
    goldens;
  heading
    "Section III-C: def/use pruning effectiveness (paper: sync2 1.5e8 -> \
     19,553)"
  ^ Table.render t

let pitfall2 ?(samples = 4096) ?(seed = 42L) scan golden =
  let truth =
    float_of_int (Metrics.failure_count scan)
    /. float_of_int (Scan.fault_space_size scan)
  in
  let t =
    Table.create
      ~columns:
        [ ("N samples", Table.Right); ("correct (raw space)", Table.Right);
          ("biased (per class)", Table.Right); ("truth", Table.Right) ]
  in
  let cell = Faultspace.of_golden Faultspace.Bitflip_mem golden in
  let n = ref 256 in
  while !n <= samples do
    let rng_c = Prng.create ~seed in
    let rng_b = Prng.create ~seed:(Int64.add seed 1L) in
    let correct = Sampler.(conduct cell (uniform_raw rng_c ~samples:!n cell)) in
    let biased = Sampler.(conduct cell (biased_per_class rng_b ~samples:!n cell)) in
    Table.row t
      [
        string_of_int !n;
        Printf.sprintf "%.5f" (Sampler.failure_fraction correct);
        Printf.sprintf "%.5f" (Sampler.failure_fraction biased);
        Printf.sprintf "%.5f" truth;
      ];
    n := !n * 4
  done;
  heading "Pitfall 2: biased (per-class) sampling vs. correct sampling"
  ^ Table.render t
  ^ "\nPer-class sampling ignores equivalence-class weights and converges\n\
     to the wrong value; raw-space sampling converges to the truth.\n"

let pitfall3_extrapolation ?(samples = 2048) ?(seed = 7L) entries =
  let t =
    Table.create
      ~columns:
        [ ("variant", Table.Left); ("w", Table.Right);
          ("F_sampled (raw)", Table.Right); ("F_extrapolated", Table.Right);
          ("F full scan", Table.Right) ]
  in
  List.iter
    (fun (name, scan, golden) ->
      let rng = Prng.create ~seed in
      let cell = Faultspace.of_golden Faultspace.Bitflip_mem golden in
      let est = Sampler.(conduct cell (uniform_raw rng ~samples cell)) in
      Table.row t
        [
          name;
          string_of_int (Scan.fault_space_size scan);
          string_of_int est.Sampler.failures;
          Printf.sprintf "%.0f" (Metrics.extrapolated_failures est);
          string_of_int (Metrics.failure_count scan);
        ])
    entries;
  heading
    "Pitfall 3 (corollary 2): raw sample counts vs. extrapolated counts"
  ^ Table.render t
  ^ Printf.sprintf
      "\nAll variants were sampled with the same N = %d: raw F_sampled \
       ignores\nthe differing fault-space sizes w and is meaningless across \
       variants;\nextrapolation recovers the full-scan counts.\n"
      samples

let ablation entries =
  let t =
    Table.create
      ~columns:
        [ ("variant", Table.Left); ("cycles", Table.Right);
          ("RAM", Table.Right); ("coverage", Table.Right);
          ("F (weighted)", Table.Right); ("P(Failure)", Table.Right);
          ("MWTF (runs)", Table.Right) ]
  in
  List.iter
    (fun (name, scan) ->
      Table.row t
        [
          name;
          string_of_int scan.Scan.cycles;
          string_of_int scan.Scan.ram_bytes;
          Printf.sprintf "%.2f%%" (100.0 *. Metrics.coverage scan);
          string_of_int (Metrics.failure_count scan);
          Printf.sprintf "%.3e" (Metrics.failure_probability scan);
          Printf.sprintf "%.3e" (Mwtf.runs_to_failure scan);
        ])
    entries;
  heading "Hardening-mechanism ablation (extension)" ^ Table.render t

let figure2_sampled ?(samples = 20_000) ?(seed = 2015L) pairs =
  let t =
    Table.create
      ~columns:
        [ ("variant", Table.Left); ("N", Table.Right);
          ("conducted", Table.Right); ("F_extrapolated", Table.Right);
          ("95% CI", Table.Left); ("F full scan", Table.Right) ]
  in
  let rebuild name variant =
    (* The golden runs are cheap to reproduce from the benchmark suite;
       scans passed in supply the ground truth. *)
    match Suite.find ~benchmark:name ~variant with
    | Some e -> Golden.run (e.Suite.build ())
    | None -> invalid_arg ("figure2_sampled: unknown benchmark " ^ name)
  in
  List.iter
    (fun (name, sb, sh) ->
      List.iter
        (fun (variant_name, variant, scan) ->
          let cell =
            Faultspace.of_golden Faultspace.Bitflip_mem (rebuild name variant)
          in
          let rng = Prng.create ~seed in
          let est = Sampler.(conduct cell (uniform_raw rng ~samples cell)) in
          let ci =
            Confidence.wilson ~fails:est.Sampler.failures
              ~trials:est.Sampler.samples ~confidence:0.95
          in
          let w = float_of_int est.Sampler.population in
          Table.row t
            [
              Printf.sprintf "%s/%s" name variant_name;
              string_of_int samples;
              string_of_int est.Sampler.conducted;
              Printf.sprintf "%.0f" (Metrics.extrapolated_failures est);
              Printf.sprintf "[%.0f, %.0f]"
                (w *. ci.Confidence.lower)
                (w *. ci.Confidence.upper);
              string_of_int (Metrics.failure_count scan);
            ])
        [ ("baseline", Suite.Baseline, sb); ("sum+dmr", Suite.Sum_dmr, sh) ])
    pairs;
  heading
    "Figure 2(e) by sampling: extrapolated failure counts with confidence \
     intervals"
  ^ Table.render t
  ^ "\nSampling reaches the same verdicts as the full scans at a small\n\
     fraction of the conducted experiments (compare the 'conducted' column\n\
     with the full campaigns' class counts).\n"

let cross_layer entries =
  let t =
    Table.create
      ~columns:
        [ ("benchmark", Table.Left); ("layer", Table.Left);
          ("w", Table.Right); ("coverage", Table.Right);
          ("F (weighted)", Table.Right) ]
  in
  List.iter
    (fun (name, rs) ->
      let mem_scan = Scan.pruned ~variant:"memory" rs.Regspace.golden in
      let reg_scan = Regspace.scan rs in
      List.iter
        (fun (layer, scan) ->
          Table.row t
            [
              name; layer;
              string_of_int (Scan.fault_space_size scan);
              Printf.sprintf "%.2f%%" (100.0 *. Metrics.coverage scan);
              string_of_int (Metrics.failure_count scan);
            ])
        [ ("memory", mem_scan); ("registers", reg_scan) ])
    entries;
  heading
    "Cross-layer fault spaces (Sections VI-B/VI-C): memory vs. register file"
  ^ Table.render t
  ^ "\nThe two layers have vastly different fault-space sizes, so their\n\
     coverage percentages are not comparable (the trap behind the 'high-\n\
     level FI is inaccurate by 45x' conclusions the paper re-examines);\n\
     absolute failure counts remain meaningful per layer and can be summed\n\
     after weighting each layer by its physical fault rate.\n"

let breakdown scan image =
  let t =
    Table.create
      ~columns:
        [ ("region", Table.Left); ("bytes", Table.Right);
          ("failure mass", Table.Right); ("byte-equivalents", Table.Right) ]
  in
  List.iter
    (fun (r : Breakdown.region) ->
      Table.row t
        [
          r.Breakdown.name;
          string_of_int r.Breakdown.bytes;
          string_of_int r.Breakdown.failure_mass;
          Printf.sprintf "%.1f" r.Breakdown.byte_equivalents;
        ])
    (Breakdown.by_region scan image);
  heading "Failure-mass breakdown by data region" ^ Table.render t
