(* Tests for the campaign engine: outcome classification, golden runs,
   injection, pruned/brute-force scans, samplers and CSV persistence.
   The "Hi" program's exact paper arithmetic (Section IV) is the primary
   fixture. *)

let outcome = Alcotest.testable Outcome.pp ( = )

(* ------------------------------------------------------------------ *)
(* Outcome classification                                             *)
(* ------------------------------------------------------------------ *)

let classify ?(golden_output = "Hi") ?(golden_event_count = 0)
    ?(stop = Machine.Halted) ?(output = "Hi") ?(event_count = 0) () =
  Outcome.classify ~golden_output ~golden_event_count ~stop ~output
    ~event_count

let test_classify_no_effect () =
  Alcotest.check outcome "identical run" Outcome.No_effect (classify ())

let test_classify_corrected () =
  Alcotest.check outcome "corrected" Outcome.Corrected
    (classify ~event_count:1 ())

let test_classify_sdc () =
  Alcotest.check outcome "wrong output" Outcome.Sdc (classify ~output:"Ha" ())

let test_classify_truncated () =
  Alcotest.check outcome "prefix output" Outcome.Output_truncated
    (classify ~output:"H" ());
  (* longer-than-golden output is SDC, not truncation *)
  Alcotest.check outcome "longer output" Outcome.Sdc
    (classify ~output:"Hi!" ())

let test_classify_stops () =
  Alcotest.check outcome "panic" Outcome.Detected_fail_stop
    (classify ~stop:(Machine.Panicked 2l) ());
  Alcotest.check outcome "timeout" Outcome.Timeout
    (classify ~stop:Machine.Cycle_limit ());
  Alcotest.check outcome "mem trap" Outcome.Trap_memory
    (classify ~stop:(Machine.Trapped (Machine.Unmapped_access 0)) ());
  Alcotest.check outcome "misaligned" Outcome.Trap_memory
    (classify ~stop:(Machine.Trapped (Machine.Misaligned_access 2)) ());
  Alcotest.check outcome "rom write" Outcome.Trap_memory
    (classify ~stop:(Machine.Trapped (Machine.Rom_write 0)) ());
  Alcotest.check outcome "cpu trap" Outcome.Trap_cpu
    (classify ~stop:(Machine.Trapped (Machine.Bad_pc 99)) ());
  Alcotest.check outcome "div zero" Outcome.Trap_cpu
    (classify ~stop:(Machine.Trapped Machine.Division_by_zero) ())

let test_outcome_strings () =
  List.iter
    (fun o ->
      Alcotest.(check (option outcome))
        "roundtrip" (Some o)
        (Outcome.of_string (Outcome.to_string o)))
    Outcome.all;
  Alcotest.(check (option outcome)) "unknown" None (Outcome.of_string "xyz")

let test_outcome_benign () =
  Alcotest.(check bool) "no_effect" true (Outcome.is_benign Outcome.No_effect);
  Alcotest.(check bool) "corrected" true (Outcome.is_benign Outcome.Corrected);
  List.iter
    (fun o ->
      if o <> Outcome.No_effect && o <> Outcome.Corrected then
        Alcotest.(check bool) (Outcome.to_string o) true (Outcome.is_failure o))
    Outcome.all

(* ------------------------------------------------------------------ *)
(* Golden runs                                                        *)
(* ------------------------------------------------------------------ *)

let hi_golden = lazy (Golden.run (Hi.program ()))

let hi_cell =
  lazy (Faultspace.of_golden Faultspace.Bitflip_mem (Lazy.force hi_golden))

let test_golden_hi () =
  let g = Lazy.force hi_golden in
  Alcotest.(check string) "output" "Hi" g.Golden.output;
  Alcotest.(check int) "runtime 8 cycles" 8 g.Golden.cycles;
  Alcotest.(check int) "fault space 128" 128 (Golden.fault_space_size g);
  Alcotest.(check int) "event-free" 0 g.Golden.event_count

let test_golden_failure () =
  let bad =
    Program.make ~name:"bad" ~code:[| Isa.Lb (Isa.reg 1, Isa.r0, 9999l) |]
      ~ram_size:16 ()
  in
  match Golden.run bad with
  | exception Golden.Golden_failed (_, Machine.Trapped _) -> ()
  | exception _ -> Alcotest.fail "wrong exception"
  | _ -> Alcotest.fail "expected Golden_failed"

(* ------------------------------------------------------------------ *)
(* Injection: Hi, the Section-IV arithmetic                           *)
(* ------------------------------------------------------------------ *)

(* One experiment at a coordinate of hi's memory space, alone on a
   fresh replay session: the restart-from-reset reference. *)
let inject_alone coord =
  let cell = Lazy.force hi_cell in
  cell.Faultspace.inject (Injector.session (Injector.replay cell.Faultspace.golden)) coord

let test_hi_failure_coordinates () =
  (* msg[0] (bits 0-7) vulnerable at cycles 2-4; msg[1] (bits 8-15) at
     cycles 4-6; everything else benign. *)
  let expected_failure cycle bit =
    let byte = bit / 8 in
    if byte = 0 then cycle >= 2 && cycle <= 4 else cycle >= 4 && cycle <= 6
  in
  let failures = ref 0 in
  for cycle = 1 to 8 do
    for bit = 0 to 15 do
      let o = inject_alone { Faultspace.cycle; bit } in
      if Outcome.is_failure o <> expected_failure cycle bit then
        Alcotest.failf "coordinate (%d, %d): got %a" cycle bit Outcome.pp o;
      if Outcome.is_failure o then incr failures
    done
  done;
  Alcotest.(check int) "F = 48 (paper)" 48 !failures

let test_session_matches_restart () =
  let cell = Lazy.force hi_cell in
  let session = Injector.session (Injector.plan cell.Faultspace.golden) in
  (* Visit coordinates in non-decreasing cycle order. *)
  for cycle = 1 to 8 do
    for bit = 0 to 15 do
      let coord = { Faultspace.cycle; bit } in
      let a = inject_alone coord in
      let b = cell.Faultspace.inject session coord in
      if a <> b then Alcotest.failf "mismatch at (%d, %d)" cycle bit
    done
  done

let test_session_monotonic () =
  let cell = Lazy.force hi_cell in
  let session = Injector.session (Injector.replay cell.Faultspace.golden) in
  ignore (cell.Faultspace.inject session { Faultspace.cycle = 5; bit = 0 });
  Alcotest.check_raises "decreasing cycle"
    (Invalid_argument "Injector.session_run_flip: injection cycles must not decrease")
    (fun () ->
      ignore (cell.Faultspace.inject session { Faultspace.cycle = 3; bit = 0 }))

let test_injector_bad_coord () =
  Alcotest.check_raises "outside space"
    (Invalid_argument "Faultspace: coordinate (9, 0) outside 8 x 16")
    (fun () -> ignore (inject_alone { Faultspace.cycle = 9; bit = 0 }))

(* ------------------------------------------------------------------ *)
(* Scans                                                              *)
(* ------------------------------------------------------------------ *)

let hi_scan =
  lazy Faultspace.(scan (of_golden Bitflip_mem (Lazy.force hi_golden)))

let test_hi_pruned_scan () =
  let scan = Lazy.force hi_scan in
  Alcotest.(check int) "w" 128 (Scan.fault_space_size scan);
  Alcotest.(check int) "experiments (2 classes x 8 bits)" 16
    (Array.length scan.Scan.experiments);
  Alcotest.(check int) "F weighted = 48" 48 (Metrics.failure_count scan)

let test_hi_brute_force_equivalence () =
  let cell = Lazy.force hi_cell in
  let scan = Lazy.force hi_scan in
  let brute = Faultspace.brute_force cell in
  Alcotest.(check int) "all coordinates" 128 (Array.length brute);
  Array.iter
    (fun ((coord : Faultspace.coord), o) ->
      if Faultspace.outcome_at cell scan coord <> o then
        Alcotest.failf "pruned/brute mismatch at (%d, %d)"
          coord.Faultspace.cycle coord.Faultspace.bit)
    brute

let test_scan_strategies_agree () =
  let g = Lazy.force hi_golden in
  let cell = Faultspace.of_golden Faultspace.Bitflip_mem g in
  let a = Faultspace.scan cell in
  let b = Faultspace.scan (Faultspace.with_stride 0 cell) in
  let key (e : Scan.experiment) =
    (e.Scan.byte, e.Scan.t_start, e.Scan.bit_in_byte, e.Scan.outcome)
  in
  let sort s =
    let l = Array.to_list (Array.map key s.Scan.experiments) in
    List.sort compare l
  in
  Alcotest.(check bool) "same results" true (sort a = sort b)

let test_scan_weight_invariant () =
  let scan = Lazy.force hi_scan in
  let conducted =
    Array.fold_left
      (fun acc e -> acc + Scan.experiment_weight e)
      0 scan.Scan.experiments
  in
  Alcotest.(check int) "conducted + benign = w"
    (Scan.fault_space_size scan)
    (conducted + scan.Scan.benign_weight)

(* Pruned scan == brute force on a random compiled MIR program: the
   central losslessness theorem of def/use pruning, checked end-to-end. *)
let small_program seed =
  let open Builder in
  (* A little data-flow program parameterised by seed. *)
  let k = 1 + (seed mod 5) in
  prog ~name:(Printf.sprintf "rand%d" seed) ~stack:64
    [ global "acc" ~init:[ seed mod 7 ]; array "buf" 3 ~init:[ 1; 2; 3 ] ]
    ([
       func "main" ~locals:[ "i" ]
         (for_ "i" ~from:(i 0) ~below:(i k)
            [
              setg "acc" (g "acc" +: elem "buf" (l "i" %: i 3));
              set_elem "buf" (l "i" %: i 3) (g "acc" ^: i seed);
            ]
         @ [ out (g "acc" &: i 255); ret_unit ]);
     ]
    @ [])

let qcheck_pruning_lossless =
  QCheck.Test.make ~name:"pruned scan equals brute force on random programs"
    ~count:6
    QCheck.(int_bound 1000)
    (fun seed ->
      let image = Codegen.compile (small_program seed) in
      let golden = Golden.run image in
      (* Keep brute force tractable. *)
      QCheck.assume (golden.Golden.cycles * golden.Golden.program.Program.ram_size < 40_000);
      List.for_all
        (fun model ->
          let cell =
            match model with
            | Faultspace.Bitflip_reg -> Faultspace.of_regspace (Regspace.analyze image)
            | m -> Faultspace.of_golden m golden
          in
          let scan = Faultspace.scan cell in
          Array.for_all
            (fun (coord, o) -> Faultspace.outcome_at cell scan coord = o)
            (Faultspace.brute_force cell))
        Faultspace.[ Bitflip_mem; Bitflip_reg; burst 3; burst ~row:2 3; Skip ])

(* ------------------------------------------------------------------ *)
(* Samplers                                                           *)
(* ------------------------------------------------------------------ *)

(* Draw from Hi's memory cell and conduct the draw. *)
let sample sampler rng ~samples =
  let cell = Lazy.force hi_cell in
  Sampler.conduct cell (sampler rng ~samples cell)

let test_uniform_raw_converges () =
  let rng = Prng.create ~seed:5L in
  let est = sample Sampler.uniform_raw rng ~samples:4000 in
  (* Ground truth on Hi: 48/128 = 0.375. *)
  Alcotest.(check bool) "estimate near 0.375" true
    (Float.abs (Sampler.failure_fraction est -. 0.375) < 0.03);
  Alcotest.(check int) "population = w" 128 est.Sampler.population;
  Alcotest.(check bool) "memoised" true (est.Sampler.distinct <= 16)

let test_biased_sampler_is_wrong () =
  (* On Hi every def/use experiment class fails, so per-class sampling
     reports failure fraction 1.0 — a maximal Pitfall-2 demonstration. *)
  let rng = Prng.create ~seed:5L in
  let est = sample Sampler.biased_per_class rng ~samples:500 in
  Alcotest.(check bool) "biased estimate = 1.0" true
    (Sampler.failure_fraction est = 1.0)

let test_uniform_effective () =
  let rng = Prng.create ~seed:5L in
  let est = sample Sampler.uniform_effective rng ~samples:1000 in
  (* Effective population w' = 2 classes x 8 bits x weight 3 = 48, all
     failing. *)
  Alcotest.(check int) "population w'" 48 est.Sampler.population;
  Alcotest.(check bool) "all samples fail" true
    (Sampler.failure_fraction est = 1.0);
  (* Extrapolation recovers the full-scan count. *)
  Alcotest.(check bool) "extrapolates to 48" true
    (Float.abs (Metrics.extrapolated_failures est -. 48.0) < 1e-9)

let test_outcome_counts_sum () =
  let rng = Prng.create ~seed:6L in
  let est = sample Sampler.uniform_raw rng ~samples:777 in
  let total =
    List.fold_left (fun acc (_, n) -> acc + n) 0 est.Sampler.outcome_counts
  in
  Alcotest.(check int) "counts sum to samples" 777 total

(* ------------------------------------------------------------------ *)
(* CSV persistence                                                    *)
(* ------------------------------------------------------------------ *)

let test_csv_roundtrip () =
  let scan = Lazy.force hi_scan in
  let text = Csv_io.to_string scan in
  match Csv_io.of_string text with
  | Error e -> Alcotest.fail e
  | Ok scan' ->
      Alcotest.(check string) "name" scan.Scan.name scan'.Scan.name;
      Alcotest.(check string) "variant" scan.Scan.variant scan'.Scan.variant;
      Alcotest.(check int) "cycles" scan.Scan.cycles scan'.Scan.cycles;
      Alcotest.(check int) "benign" scan.Scan.benign_weight scan'.Scan.benign_weight;
      Alcotest.(check int) "F preserved"
        (Metrics.failure_count scan)
        (Metrics.failure_count scan');
      Alcotest.(check int) "experiment count"
        (Array.length scan.Scan.experiments)
        (Array.length scan'.Scan.experiments)

let test_csv_file_roundtrip () =
  let scan = Lazy.force hi_scan in
  let path = Filename.temp_file "fipit" ".csv" in
  Csv_io.save path scan;
  (match Csv_io.load path with
  | Error e -> Alcotest.fail e
  | Ok scan' ->
      Alcotest.(check int) "F preserved"
        (Metrics.failure_count scan)
        (Metrics.failure_count scan'));
  Sys.remove path

let test_csv_errors () =
  (match Csv_io.of_string "garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected header error");
  match Csv_io.of_string "# name,x\n# variant,v\n# cycles,zz\n# ram_bytes,4\n# benign_weight,0\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected integer error"

let suite =
  ( "campaign",
    [
      Alcotest.test_case "classify no effect" `Quick test_classify_no_effect;
      Alcotest.test_case "classify corrected" `Quick test_classify_corrected;
      Alcotest.test_case "classify sdc" `Quick test_classify_sdc;
      Alcotest.test_case "classify truncated" `Quick test_classify_truncated;
      Alcotest.test_case "classify stop reasons" `Quick test_classify_stops;
      Alcotest.test_case "outcome string roundtrip" `Quick test_outcome_strings;
      Alcotest.test_case "benign/failure split" `Quick test_outcome_benign;
      Alcotest.test_case "golden hi" `Quick test_golden_hi;
      Alcotest.test_case "golden failure" `Quick test_golden_failure;
      Alcotest.test_case "hi failure coordinates (F=48)" `Quick
        test_hi_failure_coordinates;
      Alcotest.test_case "session = restart" `Quick test_session_matches_restart;
      Alcotest.test_case "session monotonic" `Quick test_session_monotonic;
      Alcotest.test_case "injector bad coordinate" `Quick test_injector_bad_coord;
      Alcotest.test_case "hi pruned scan" `Quick test_hi_pruned_scan;
      Alcotest.test_case "hi brute force equivalence" `Quick
        test_hi_brute_force_equivalence;
      Alcotest.test_case "scan strategies agree" `Quick test_scan_strategies_agree;
      Alcotest.test_case "scan weight invariant" `Quick test_scan_weight_invariant;
      QCheck_alcotest.to_alcotest qcheck_pruning_lossless;
      Alcotest.test_case "uniform sampling converges" `Quick
        test_uniform_raw_converges;
      Alcotest.test_case "biased sampler is wrong" `Quick
        test_biased_sampler_is_wrong;
      Alcotest.test_case "effective-population sampler" `Quick
        test_uniform_effective;
      Alcotest.test_case "outcome counts sum" `Quick test_outcome_counts_sum;
      Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
      Alcotest.test_case "csv file roundtrip" `Quick test_csv_file_roundtrip;
      Alcotest.test_case "csv errors" `Quick test_csv_errors;
    ] )
