(* The benchmark harness: regenerates every table and figure of the paper
   (see DESIGN.md's experiment index) and runs Bechamel micro-benchmarks
   of the substrate.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- table1 figure3 perf

   Campaign-backed artifacts keep their results in the engine's result
   store under _artifacts/, so re-running reports is cheap and a changed
   program image always conducts afresh; delete the directory to force
   fresh campaigns. *)

let store = "_artifacts"

(* Matrix-wide campaign progress on stderr, at most ten lines a
   second. *)
let progress () =
  Progress.throttled (fun snap ->
      Printf.eprintf "\r[campaign] %s%!" (Progress.render snap);
      if Progress.finished snap then prerr_newline ())

let section title =
  Printf.printf "\n%s\n%s\n" (String.make 72 '=') title;
  Printf.printf "%s\n" (String.make 72 '=')

(* ------------------------------------------------------------------ *)
(* Campaign-backed data                                               *)
(* ------------------------------------------------------------------ *)

(* The one campaign path: every cell runs through the engine's single
   entry point with its journals and the result store under
   _artifacts/.  A cell is served from the store only when its key
   (program-image digest, fault space, limit, shard size, weighting)
   matches, and an interrupted regeneration resumes shard-exact. *)
let scans specs =
  let policy =
    Spec.make_policy ~resume:true ~catalogue:store ~cache:store ()
  in
  List.map Engine.scan_exn
    (Engine.run_matrix_results
       ~observe:(progress ())
       (List.map (Spec.with_policy policy) specs))

(* The Figure-2 pairs: (name, baseline, SUM+DMR), each a memory cell
   analysed once and its scan.  The engine conducts from the same golden
   runs, so cache keys and fingerprints are those of the suite's specs. *)
let paper_cells =
  lazy
    (let analysed variant build =
       let golden = Golden.run (build ()) in
       ( Spec.of_golden ~variant golden,
         Faultspace.of_golden Faultspace.Bitflip_mem golden )
     in
     let cells =
       List.concat_map
         (fun (_, baseline, sum_dmr) ->
           [ analysed "baseline" baseline; analysed "sum+dmr" sum_dmr ])
         Suite.paper_pairs
     in
     let rec pair_up = function
       | (name, _, _) :: pairs, b :: h :: rest ->
           (name, b, h) :: pair_up (pairs, rest)
       | _ -> []
     in
     let scanned = List.combine (List.map snd cells) (scans (List.map fst cells)) in
     pair_up (Suite.paper_pairs, scanned))

(* The Figure-2 pairs' scans: (name, baseline scan, SUM+DMR scan). *)
let paper_scans () =
  List.map
    (fun (name, (_, sb), (_, sh)) -> (name, sb, sh))
    (Lazy.force paper_cells)

(* ------------------------------------------------------------------ *)
(* Artifacts                                                          *)
(* ------------------------------------------------------------------ *)

let run_table1 () =
  section "T1 | Table I";
  print_string (Figures.table1 ())

let run_figure1 () =
  section "F1 | Figure 1: def/use pruning";
  print_string (Figures.figure1 ())

let run_figure3 () =
  section "F3 | Figure 3 / Section IV: the dilution delusion";
  print_string (Figures.figure3 ())

let run_figure2 () =
  section "F2 | Figure 2: bin_sem2 and sync2, baseline vs SUM+DMR";
  print_string (Figures.figure2 (paper_scans ()))

let run_pruning () =
  section "S3C | Section III-C: pruning effectiveness";
  let goldens =
    List.map
      (fun (e : Suite.entry) ->
        ( Printf.sprintf "%s/%s" e.Suite.benchmark
            (Suite.variant_name e.Suite.variant),
          Golden.run (e.Suite.build ()) ))
      (List.filter (fun e -> e.Suite.variant <> Suite.Tmr) Suite.all)
  in
  print_string (Figures.pruning_stats (("hi", Golden.run (Hi.program ())) :: goldens))

let run_pitfall2 () =
  section "P2 | Pitfall 2: biased sampling";
  (* Ground truth from the bin_sem2 baseline campaign. *)
  let _, bin_sem2, _ = List.hd (Lazy.force paper_cells) in
  print_string (Figures.pitfall2 bin_sem2);
  print_string "\nAnd maximally on the Hi program (every def/use class fails):\n";
  let hi = Faultspace.analyse Faultspace.Bitflip_mem (Hi.program ()) in
  print_string (Figures.pitfall2 ~samples:1024 (hi, Faultspace.scan hi))

let run_pitfall3 () =
  section "P3 | Pitfall 3 (corollary 2): extrapolation";
  let entries =
    List.concat_map
      (fun (name, b, h) -> [ (name ^ "/baseline", b); (name ^ "/sum+dmr", h) ])
      (Lazy.force paper_cells)
  in
  print_string (Figures.pitfall3_extrapolation entries)

let run_figure2_sampled () =
  section "F2s | Figure 2(e) via sampling (common practice, done right)";
  print_string (Figures.figure2_sampled (Lazy.force paper_cells))

let run_ratios () =
  section "R | Comparison ratios (Section V)";
  List.iter
    (fun (name, sb, sh) ->
      let p3 = Pitfalls.analyze_pitfall3 ~baseline:sb ~hardened:sh in
      Format.printf "%-10s %a@." name Pitfalls.pp_pitfall3 p3;
      Format.printf "%-10s MWTF ratio (hardened/baseline): %.3f@." ""
        (Mwtf.relative ~baseline:sb ~hardened:sh ()))
    (paper_scans ())

let run_ablation () =
  section "X2 | Hardening ablation: baseline vs SUM+DMR vs TMR";
  let benchmarks = [ "bin_sem2"; "mutex1"; "mbox1"; "flag1" ] in
  let cells =
    List.concat_map
      (fun benchmark ->
        List.filter_map
          (fun variant -> Suite.find ~benchmark ~variant)
          [ Suite.Baseline; Suite.Sum_dmr; Suite.Tmr ])
      benchmarks
  in
  let entries =
    List.map2
      (fun (e : Suite.entry) scan ->
        ( Printf.sprintf "%s/%s" e.benchmark (Suite.variant_name e.variant),
          scan ))
      cells
      (scans (List.map Suite.spec_of cells))
  in
  print_string (Figures.ablation entries);
  (* The objective verdict per benchmark and mechanism. *)
  let find name = List.assoc name entries in
  List.iter
    (fun benchmark ->
      let base = find (benchmark ^ "/baseline") in
      List.iter
        (fun variant ->
          let hardened = find (Printf.sprintf "%s/%s" benchmark variant) in
          let p3 = Pitfalls.analyze_pitfall3 ~baseline:base ~hardened in
          Format.printf "%-10s %-8s %a@." benchmark variant
            Pitfalls.pp_pitfall3 p3)
        [ "sum+dmr"; "tmr" ])
    benchmarks

let run_optimization () =
  section "X4 | Compilation ablation: optimisation changes the fault space";
  (* A naively-written filter kernel, as a source-to-source generator
     would emit it: constant expressions spelled out, helper temporaries
     kept alive "for debugging".  const-fold + DSE removes the dead
     stores and resolves the constant branches. *)
  let source =
    let open Builder in
    prog ~name:"filter" ~stack:128
      [ array "samples" 12 ~init:[ 9; 2; 14; 7; 31; 4; 18; 25; 6; 11; 3; 28 ];
        array "out" 12; global "count" ]
      ([
         func "main" ~locals:[ "k"; "v"; "dbg"; "threshold" ]
           ([
              set "threshold" (i 2 *: i 5 +: i 2) (* constant: 12 *);
            ]
           @ for_ "k" ~from:(i 0) ~below:(i 12)
               [
                 set "v" (elem "samples" (l "k"));
                 set "dbg" (l "v" *: i 1000 +: l "k") (* dead *);
                 Mir.If
                   ( Mir.Cmp (Mir.Ltu, l "threshold", l "v"),
                     [
                       set_elem "out" (g "count") (l "v");
                       setg "count" (g "count" +: i 1);
                       set "dbg" (l "dbg" +: i 1) (* dead *);
                     ],
                     [] );
               ]
           @ [ out_str "kept "; call_ out_dec [ g "count" ];
               out_str "\n"; ret_unit ]);
       ]
      @ stdlib)
  in
  let entries =
    [
      ( "filter -O0",
        Faultspace.(scan (analyse Bitflip_mem (Codegen.compile source))) );
      ( "filter -O1",
        Faultspace.(
          scan ~variant:"optimized"
            (analyse Bitflip_mem (Codegen.compile (Optimize.optimize source)))) );
    ]
  in
  print_string (Figures.ablation entries);
  print_string
    "\nThe compiler changes runtime and data lifetimes, so susceptibility\n\
     is a property of the binary, not the source (compare the F column);\n\
     any FI comparison must therefore fix the toolchain.\n"

let run_registers () =
  section "X3 | Register fault space (Sections VI-B/VI-C extension)";
  print_string
    (Figures.cross_layer
       [
         ("hi", Golden.run (Hi.program ()));
         ("mbox1", Golden.run (Mbox1.baseline ()));
         ("mutex1", Golden.run (Mutex1.baseline ()));
       ])

let run_engine_checkpoint () =
  section
    "ENGK | Checkpoint-plan hot path: snapshot sessions vs replay-from-reset \
     on both fault spaces (writes BENCH_engine.json)";
  let smoke = Sys.getenv_opt "FI_BENCH_SMOKE" <> None in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* Smoke mode (CI): same differential check and gates on a smaller
     kernel; BENCH_engine.json is left untouched. *)
  let program =
    if smoke then Mbox1.baseline () else Bin_sem2.baseline ()
  in
  (* Each space's scan through the replay provider, then through a
     checkpoint plan whose exit counts are reported below.  Both spaces
     are cells of one golden run. *)
  let golden = Golden.run program in
  let scans model =
    let cell = Faultspace.of_golden model golden in
    let replay, t_replay =
      time (fun () -> Faultspace.scan (Faultspace.with_stride 0 cell))
    in
    (* build the ladder outside the timed scan *)
    let provider = cell.Faultspace.provider () in
    let plan, t_plan = time (fun () -> Faultspace.scan cell) in
    (replay, t_replay, provider, plan, t_plan)
  in
  let replay_mem, t_mr, mem_provider, plan_mem, t_mp =
    scans Faultspace.Bitflip_mem
  in
  let mem_identical = plan_mem = replay_mem in
  let replay_reg, t_rr, reg_provider, plan_reg, t_rp =
    scans Faultspace.Bitflip_reg
  in
  let reg_identical = plan_reg = replay_reg in
  Printf.printf "stride                    : %d cycles\n"
    Injector.default_stride;
  Printf.printf
    "memory space   replay    : %6.2f s   checkpoint: %6.2f s  (speedup \
     %.2fx, bit-identical %b)\n"
    t_mr t_mp (t_mr /. t_mp) mem_identical;
  Printf.printf
    "register space replay    : %6.2f s   checkpoint: %6.2f s  (speedup \
     %.2fx, bit-identical %b)\n"
    t_rr t_rp (t_rr /. t_rp) reg_identical;
  let mem_counts = Injector.counts mem_provider
  and reg_counts = Injector.counts reg_provider in
  Format.printf "@.memory space exits:@.%a@.register space exits:@.%a@."
    Injector.pp_counts mem_counts Injector.pp_counts reg_counts;
  (* The interpreter's layer figure: the plan's wall time over the
     cycles its runs simulated (a report, not a gate). *)
  let simulated c = Array.fold_left ( + ) 0 c.Injector.cycles in
  let ns_per_cycle t c = t *. 1e9 /. float (max 1 (simulated c)) in
  Printf.printf
    "memory space   plan      : %d simulated cycles, %.2f ns/cycle\n\
     register space plan      : %d simulated cycles, %.2f ns/cycle\n"
    (simulated mem_counts) (ns_per_cycle t_mp mem_counts)
    (simulated reg_counts) (ns_per_cycle t_rp reg_counts);
  if not (mem_identical && reg_identical) then begin
    Printf.eprintf
      "engine-checkpoint: plan outcomes are NOT bit-identical to replay \
       (memory %b, registers %b)\n"
      mem_identical reg_identical;
    exit 1
  end;
  (* The differential above covers an exit path only if runs took it:
     the memo in either space, and the watchdog and the ladder splice
     in each space. *)
  let memo_hits c = Injector.exits c Injector.Memo_hit in
  if memo_hits mem_counts + memo_hits reg_counts = 0 then begin
    prerr_endline
      "engine-checkpoint: the faulty-state memo never hit, so the replay \
       differential did not cover it";
    exit 1
  end;
  List.iter
    (fun (space, c) ->
      List.iter
        (fun kind ->
          if Injector.exits c kind = 0 then begin
            Printf.eprintf
              "engine-checkpoint: no %s-space run exited by %s, so the \
               replay differential did not cover that path\n"
              space (Injector.exit_kind_name kind);
            exit 1
          end)
        [ Injector.Watchdog; Injector.Ladder_splice ])
    [ ("memory", mem_counts); ("register", reg_counts) ];
  if smoke then
    Printf.printf
      "smoke mode: bit-identity verified; BENCH_engine.json left untouched\n"
  else begin
    let oc = open_out "BENCH_engine.json" in
    Printf.fprintf oc
      "{\n\
      \  \"host_cores\": %d,\n\
      \  \"checkpoint\": {\n\
      \    \"benchmark\": \"bin_sem2/baseline\",\n\
      \    \"stride\": %d,\n\
      \    \"memory\": {\"replay_seconds\": %.3f, \"plan_seconds\": %.3f, \
       \"speedup\": %.2f, \"bit_identical\": %b, \"plan_cycles\": %d, \
       \"ns_per_cycle\": %.2f},\n\
      \    \"registers\": {\"replay_seconds\": %.3f, \"plan_seconds\": \
       %.3f, \"speedup\": %.2f, \"bit_identical\": %b, \"plan_cycles\": \
       %d, \"ns_per_cycle\": %.2f}\n\
      \  }\n\
       }\n"
      (Pool.default_jobs ()) Injector.default_stride t_mr t_mp (t_mr /. t_mp)
      mem_identical (simulated mem_counts) (ns_per_cycle t_mp mem_counts) t_rr
      t_rp (t_rr /. t_rp) reg_identical (simulated reg_counts)
      (ns_per_cycle t_rp reg_counts);
    close_out oc;
    Printf.printf "wrote BENCH_engine.json\n"
  end


(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                          *)
(* ------------------------------------------------------------------ *)

let perf_tests () =
  let open Bechamel in
  let hi_golden = Golden.run (Hi.program ()) in
  let bin_image = Bin_sem2.baseline () in
  let bin_golden = Golden.run bin_image in
  let bin_cell = Faultspace.of_golden Faultspace.Bitflip_mem bin_golden in
  let rng = Prng.create ~seed:1L in
  let sample_words =
    Array.init 256 (fun _ -> Int64.to_int32 (Prng.next_int64 rng))
  in
  [
    (* One Test.make per reproduced artifact's dominant kernel, plus the
       substrate primitives. *)
    Test.make ~name:"T1-poisson-pmf"
      (Staged.stage (fun () -> ignore (Poisson.pmf ~lambda:1.66e-14 1)));
    Test.make ~name:"F1-defuse-analysis"
      (Staged.stage (fun () -> ignore (Defuse.analyze bin_golden.Golden.trace)));
    (* The two other per-cell passes every cache hit pays before it reads
       its journal: the t_end ranking and the campaign fingerprint. *)
    Test.make ~name:"F1-shard-plan-bin-sem2"
      (Staged.stage (fun () -> ignore (Shard.plan bin_cell.Faultspace.classes)));
    Test.make ~name:"F1-fingerprint-bin-sem2"
      (Staged.stage
         (let plan = Shard.plan bin_cell.Faultspace.classes in
          fun () -> ignore (Runcell.fingerprint_cell bin_cell ~plan)));
    (* A cell's set-up past its analysis, from the image, so that each
       run records a fresh register trace: a memory cell's golden run
       and checkpoint ladder, and a register cell's partition of a
       fresh golden run. *)
    Test.make ~name:"F1-ladder-build-bin-sem2"
      (Staged.stage (fun () -> ignore (Injector.plan (Golden.run bin_image))));
    Test.make ~name:"F1-regspace-bin-sem2"
      (Staged.stage (fun () ->
           ignore (Regspace.of_golden (Golden.run bin_image))));
    Test.make ~name:"F3-hi-full-scan"
      (Staged.stage (fun () ->
           ignore Faultspace.(scan (of_golden Bitflip_mem hi_golden))));
    Test.make ~name:"F2-golden-run-bin-sem2"
      (Staged.stage (fun () ->
           let m = Machine.create bin_image in
           ignore (Machine.run m ~limit:10_000_000)));
    Test.make ~name:"F2-one-experiment"
      (Staged.stage
         (let coord =
            { Faultspace.cycle = bin_golden.Golden.cycles / 2; bit = 64 }
          in
          fun () ->
            ignore
              (bin_cell.Faultspace.inject
                 (Injector.session (Injector.replay bin_golden))
                 coord)));
    Test.make ~name:"P2-sampling-256"
      (Staged.stage
         (let cell = Faultspace.of_golden Faultspace.Bitflip_mem hi_golden in
          fun () ->
            let rng = Prng.create ~seed:7L in
            ignore Sampler.(conduct cell (uniform_raw rng ~samples:256 cell))));
    Test.make ~name:"substrate-encode-decode"
      (Staged.stage (fun () ->
           Array.iter
             (fun w ->
               match Encoding.decode w with
               | Ok i -> ignore (Encoding.encode i)
               | Error _ -> ())
             sample_words));
    Test.make ~name:"substrate-snapshot-restore"
      (Staged.stage
         (let m = Machine.create bin_image in
          Machine.run_until m ~cycle:1000;
          let snap = Machine.Snapshot.capture m in
          fun () -> ignore (Machine.Snapshot.restore snap)));
  ]

let run_perf () =
  section "PERF | Bechamel micro-benchmarks of the substrate";
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"fipitfalls" ~fmt:"%s %s" (perf_tests ()))
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let t =
    Table.create
      ~columns:
        [ ("benchmark", Table.Left); ("time/run", Table.Right);
          ("r^2", Table.Right) ]
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      let estimate =
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.sprintf "%.1f ns" est
        | Some _ | None -> "n/a"
      in
      let r2 =
        match Analyze.OLS.r_square result with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "n/a"
      in
      rows := (name, estimate, r2) :: !rows)
    results;
  List.iter
    (fun (name, estimate, r2) -> Table.row t [ name; estimate; r2 ])
    (List.sort compare !rows);
  Table.print t

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let artifacts =
  [
    ("table1", run_table1);
    ("figure1", run_figure1);
    ("figure3", run_figure3);
    ("figure2", run_figure2);
    ("pruning", run_pruning);
    ("pitfall2", run_pitfall2);
    ("pitfall3", run_pitfall3);
    ("figure2-sampled", run_figure2_sampled);
    ("ratios", run_ratios);
    ("ablation", run_ablation);
    ("registers", run_registers);
    ("engine-checkpoint", run_engine_checkpoint);
    ("optimization", run_optimization);
    ("perf", run_perf);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst artifacts
  in
  List.iter
    (fun name ->
      match List.assoc_opt name artifacts with
      | Some run -> run ()
      | None ->
          Printf.eprintf "unknown artifact %S; available: %s\n" name
            (String.concat ", " (List.map fst artifacts));
          exit 1)
    requested
