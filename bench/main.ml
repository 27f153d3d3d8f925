(* The benchmark harness: regenerates every table and figure of the paper
   (see DESIGN.md's experiment index) and runs Bechamel micro-benchmarks
   of the substrate.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- table1 figure3 perf

   Campaign results are cached as CSV under _artifacts/ so re-running
   reports is cheap; delete the directory to force fresh campaigns. *)

let cache_dir = "_artifacts"

let ensure_cache_dir () =
  if not (Sys.file_exists cache_dir) then Sys.mkdir cache_dir 0o755

let progress label ~done_ ~total ~tally =
  if done_ = total || done_ mod 500 = 0 then begin
    Printf.eprintf "\r[campaign %s] %d/%d classes (%d failures)" label done_
      total
      (Outcome.tally_failures tally);
    if done_ = total then Printf.eprintf "\n";
    flush stderr
  end

(* One cell through the engine's single entry point. *)
let run_cell ?backend ?jobs ?observe spec =
  match Engine.run_matrix_results ?backend ?jobs ?observe [ spec ] with
  | [ r ] -> r
  | _ -> assert false

let section title =
  Printf.printf "\n%s\n%s\n" (String.make 72 '=') title;
  Printf.printf "%s\n" (String.make 72 '=')

(* ------------------------------------------------------------------ *)
(* Campaign-backed data (cached)                                      *)
(* ------------------------------------------------------------------ *)

(* The Figure-2 pairs as one campaign matrix: cached cells load from
   their CSV, every missing cell runs through a single shared
   Engine.run_matrix_results (catalogue-journaled under _artifacts/, so an
   interrupted regeneration resumes shard-exact). *)
let paper_scans =
  lazy
    (ensure_cache_dir ();
     let policy = Spec.make_policy ~resume:true ~catalogue:cache_dir () in
     let cells =
       List.concat_map
         (fun (name, baseline, hardened) ->
           [ (name, "baseline", baseline); (name, "sum+dmr", hardened) ])
         Suite.paper_pairs
     in
     let cache_path name variant =
       Filename.concat cache_dir (Printf.sprintf "%s-%s.csv" name variant)
     in
     let cached =
       List.map
         (fun (name, variant, _) ->
           if Sys.file_exists (cache_path name variant) then
             match Csv_io.load (cache_path name variant) with
             | Ok scan -> Some scan
             | Error _ -> None
           else None)
         cells
     in
     let missing =
       List.filter_map
         (fun ((name, variant, build), c) ->
           if c = None then
             Some (Spec.memory ~variant ~policy ~benchmark:name build)
           else None)
         (List.combine cells cached)
     in
     let fresh =
       if missing = [] then []
       else
         List.map Engine.scan_exn
           (Engine.run_matrix_results ~jobs:(Pool.default_jobs ())
              ~progress:(fun spec -> progress (Spec.label spec))
              missing)
     in
     let fresh = ref fresh in
     let scans =
       List.map2
         (fun (name, variant, _) c ->
           match c with
           | Some scan -> scan
           | None ->
               let scan = List.hd !fresh in
               fresh := List.tl !fresh;
               (try Csv_io.save (cache_path name variant) scan
                with Sys_error _ -> () (* cache is best-effort *));
               scan)
         cells cached
     in
     let rec pair_up = function
       | (name, _, _) :: _ :: rest, sb :: sh :: scans ->
           (name, sb, sh) :: pair_up (rest, scans)
       | _ -> []
     in
     pair_up (cells, scans))

let extra_scan ~name ~variant build =
  ensure_cache_dir ();
  let path = Filename.concat cache_dir (Printf.sprintf "%s-%s.csv" name variant) in
  if Sys.file_exists path then
    match Csv_io.load path with
    | Ok scan -> scan
    | Error _ ->
        let scan = Scan.pruned ~variant (Golden.run (build ())) in
        Csv_io.save path scan;
        scan
  else begin
    let scan =
      Scan.pruned ~variant
        ~progress:(progress (name ^ "/" ^ variant))
        (Golden.run (build ()))
    in
    Csv_io.save path scan;
    scan
  end

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
  print_string (Figures.figure2 (Lazy.force paper_scans))

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
  (* Ground truth from the cached bin_sem2 baseline campaign. *)
  let scans = Lazy.force paper_scans in
  let _, sb, _ = List.hd scans in
  let golden = Golden.run (Bin_sem2.baseline ()) in
  print_string (Figures.pitfall2 sb golden);
  print_string "\nAnd maximally on the Hi program (every def/use class fails):\n";
  let hi_g = Golden.run (Hi.program ()) in
  print_string (Figures.pitfall2 ~samples:1024 (Scan.pruned hi_g) hi_g)

let run_pitfall3 () =
  section "P3 | Pitfall 3 (corollary 2): extrapolation";
  let scans = Lazy.force paper_scans in
  let entries =
    List.concat_map
      (fun (name, sb, sh) ->
        let baseline_golden, hardened_golden =
          match name with
          | "bin_sem2" ->
              (Golden.run (Bin_sem2.baseline ()), Golden.run (Bin_sem2.sum_dmr ()))
          | _ -> (Golden.run (Sync2.baseline ()), Golden.run (Sync2.sum_dmr ()))
        in
        [
          (name ^ "/baseline", sb, baseline_golden);
          (name ^ "/sum+dmr", sh, hardened_golden);
        ])
      scans
  in
  print_string (Figures.pitfall3_extrapolation entries)

let run_figure2_sampled () =
  section "F2s | Figure 2(e) via sampling (common practice, done right)";
  print_string (Figures.figure2_sampled (Lazy.force paper_scans))

let run_ratios () =
  section "R | Comparison ratios (Section V)";
  List.iter
    (fun (name, sb, sh) ->
      let p3 = Pitfalls.analyze_pitfall3 ~baseline:sb ~hardened:sh in
      Format.printf "%-10s %a@." name Pitfalls.pp_pitfall3 p3;
      Format.printf "%-10s MWTF ratio (hardened/baseline): %.3f@." ""
        (Mwtf.relative ~baseline:sb ~hardened:sh ()))
    (Lazy.force paper_scans)

let run_ablation () =
  section "X2 | Hardening ablation: baseline vs SUM+DMR vs TMR";
  let entries =
    List.concat_map
      (fun (benchmark, builders) ->
        List.map
          (fun (variant, build) ->
            ( Printf.sprintf "%s/%s" benchmark variant,
              extra_scan ~name:benchmark ~variant build ))
          builders)
      [
        ( "bin_sem2",
          [ ("baseline", fun () -> Bin_sem2.baseline ());
            ("sum+dmr", fun () -> Bin_sem2.sum_dmr ());
            ("tmr", fun () -> Bin_sem2.tmr ()) ] );
        ( "mutex1",
          [ ("baseline", fun () -> Mutex1.baseline ());
            ("sum+dmr", fun () -> Mutex1.sum_dmr ());
            ("tmr", fun () -> Mutex1.tmr ()) ] );
        ( "mbox1",
          [ ("baseline", fun () -> Mbox1.baseline ());
            ("sum+dmr", fun () -> Mbox1.sum_dmr ());
            ("tmr", fun () -> Mbox1.tmr ()) ] );
        ( "flag1",
          [ ("baseline", fun () -> Flag1.baseline ());
            ("sum+dmr", fun () -> Flag1.sum_dmr ());
            ("tmr", fun () -> Flag1.tmr ()) ] );
      ]
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
    [ "bin_sem2"; "mutex1"; "mbox1"; "flag1" ]

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
      ("filter -O0", Scan.pruned (Golden.run (Codegen.compile source)));
      ( "filter -O1",
        Scan.pruned ~variant:"optimized"
          (Golden.run (Codegen.compile (Optimize.optimize source))) );
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
         ("hi", Regspace.analyze (Hi.program ()));
         ("mbox1", Regspace.analyze (Mbox1.baseline ()));
         ("mutex1", Regspace.analyze (Mutex1.baseline ()));
       ])

let run_engine () =
  section "ENG | Campaign-engine ablation: checkpoint plan vs. replay provider";
  let golden = Golden.run (Mbox1.baseline ()) in
  let time label provider =
    let t0 = Sys.time () in
    let scan = Scan.pruned ~provider golden in
    Printf.printf "%-12s %6.2f s  (F = %d)\n" label (Sys.time () -. t0)
      (Metrics.failure_count scan);
    scan
  in
  let a = time "checkpoint" (Injector.plan golden) in
  let b = time "replay" (Injector.replay golden) in
  Printf.printf "identical results: %b\n" (a = b)

let run_engine_parallel () =
  section
    "ENGP | Parallel campaign engine: bin_sem2 serial vs backend × -j \
     (emits BENCH_engine.json)";
  let golden = Golden.run (Bin_sem2.baseline ()) in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let serial, t_serial = time (fun () -> Scan.pruned golden) in
  let runs =
    List.concat_map
      (fun backend ->
        List.map
          (fun jobs ->
            let scan, t =
              time (fun () ->
                  Engine.scan_exn
                    (run_cell ~backend ~jobs (Spec.of_golden golden)))
            in
            (backend, jobs, t, scan = serial))
          [ 1; 2; 4 ])
      [ Pool.Domains; Pool.Processes ]
  in
  let cores = Pool.default_jobs () in
  Printf.printf "host cores          : %d\n" cores;
  Printf.printf "experiments         : %d\n"
    (Array.length serial.Scan.experiments);
  Printf.printf "serial Scan.pruned  : %6.2f s\n" t_serial;
  List.iter
    (fun (backend, jobs, t, identical) ->
      Printf.printf "%-9s -j %-2d      : %6.2f s  (speedup %.2fx, \
                     bit-identical %b)\n"
        (Pool.backend_tag backend) jobs t (t_serial /. t) identical)
    runs;
  if cores = 1 then
    Printf.printf
      "note: single-core host — parallel speedup is not observable here;\n\
      \      the engine still shards, journals and merges identically.\n";
  let json =
    let run_fields =
      List.map
        (fun (backend, jobs, t, identical) ->
          Printf.sprintf
            "    {\"backend\": \"%s\", \"jobs\": %d, \"seconds\": %.3f, \
             \"speedup\": %.3f, \"bit_identical\": %b}"
            (Pool.backend_tag backend) jobs t (t_serial /. t) identical)
        runs
    in
    Printf.sprintf
      "{\n\
      \  \"benchmark\": \"bin_sem2/baseline\",\n\
      \  \"host_cores\": %d,\n\
      \  \"classes\": %d,\n\
      \  \"experiments\": %d,\n\
      \  \"serial_seconds\": %.3f,\n\
      \  \"engine\": [\n%s\n  ]\n\
       }\n"
      cores
      (Array.length serial.Scan.experiments / 8)
      (Array.length serial.Scan.experiments)
      t_serial
      (String.concat ",\n" run_fields)
  in
  let oc = open_out "BENCH_engine.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_engine.json\n"

let run_engine_checkpoint () =
  section
    "ENGK | Checkpoint-plan hot path: snapshot sessions vs replay-from-reset \
     on both fault spaces (splices \"checkpoint\" into BENCH_engine.json)";
  let smoke = Sys.getenv_opt "FI_BENCH_SMOKE" <> None in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* Smoke mode (CI): same differential check, smaller kernel, and the
     curated BENCH_engine.json numbers are left untouched. *)
  let program =
    if smoke then Mbox1.baseline () else Bin_sem2.baseline ()
  in
  let golden = Golden.run program in
  let replay_mem, t_mr =
    time (fun () -> Scan.pruned ~provider:(Injector.replay golden) golden)
  in
  let mem_provider = Injector.plan golden in
  let plan_mem, t_mp =
    time (fun () -> Scan.pruned ~provider:mem_provider golden)
  in
  let mem_identical = plan_mem = replay_mem in
  let rt = Regspace.analyze program in
  let rgolden = rt.Regspace.golden in
  let replay_reg, t_rr =
    time (fun () -> Regspace.scan ~provider:(Injector.replay rgolden) rt)
  in
  let reg_provider = Injector.plan rgolden in
  let plan_reg, t_rp =
    time (fun () -> Regspace.scan ~provider:reg_provider rt)
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
    (* Splice next to the engine sections, replacing any previous
       checkpoint section (idempotent re-runs); write a minimal skeleton
       if engine-parallel has not run yet.  The seed's recorded serial
       wall clock (the file's top-level "serial_seconds") is the
       cross-build reference the plan is measured against. *)
    let path = "BENCH_engine.json" in
    let base =
      if Sys.file_exists path then begin
        let ic = open_in_bin path in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        text
      end
      else "{\n  \"benchmark\": \"bin_sem2/baseline\"\n}\n"
    in
    let find_sub hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec scan i =
        if i + nn > nh then None
        else if String.sub hay i nn = needle then Some i
        else scan (i + 1)
      in
      scan 0
    in
    let seed_serial =
      match find_sub base "\"serial_seconds\": " with
      | None -> 0.
      | Some i -> (
          let start = i + String.length "\"serial_seconds\": " in
          let stop = ref start in
          while
            !stop < String.length base
            && (match base.[!stop] with
               | '0' .. '9' | '.' | '-' -> true
               | _ -> false)
          do
            incr stop
          done;
          try float_of_string (String.sub base start (!stop - start))
          with Failure _ -> 0.)
    in
    let ck_json =
      Printf.sprintf
        "{\n\
        \    \"stride\": %d,\n\
        \    \"memory\": {\"replay_seconds\": %.3f, \"plan_seconds\": %.3f, \
         \"speedup\": %.2f, \"bit_identical\": %b},\n\
        \    \"registers\": {\"replay_seconds\": %.3f, \"plan_seconds\": \
         %.3f, \"speedup\": %.2f, \"bit_identical\": %b},\n\
        \    \"seed_serial_seconds\": %.3f,\n\
        \    \"speedup_vs_seed\": %.2f\n\
        \  }"
        Injector.default_stride t_mr t_mp (t_mr /. t_mp) mem_identical t_rr
        t_rp (t_rr /. t_rp) reg_identical seed_serial
        (if t_mp > 0. && seed_serial > 0. then seed_serial /. t_mp else 0.)
    in
    let trim_tail s =
      let n = ref (String.length s) in
      while !n > 0 && (s.[!n - 1] = '\n' || s.[!n - 1] = ' ') do
        decr n
      done;
      String.sub s 0 !n
    in
    let block = ",\n  \"checkpoint\": " ^ ck_json in
    let text =
      match find_sub base ",\n  \"checkpoint\":" with
      | Some i ->
          (* Replace the old section in place, up to the brace that
             closes its object, and keep the sections after it. *)
          let rec close j depth =
            match base.[j] with
            | '{' -> close (j + 1) (depth + 1)
            | '}' when depth = 1 -> j + 1
            | '}' -> close (j + 1) (depth - 1)
            | _ -> close (j + 1) depth
          in
          let e = close (String.index_from base i '{') 0 in
          String.sub base 0 i ^ block
          ^ String.sub base e (String.length base - e)
      | None ->
          let t = trim_tail base in
          let n = String.length t in
          let body =
            if n > 0 && t.[n - 1] = '}' then trim_tail (String.sub t 0 (n - 1))
            else t
          in
          body ^ block ^ "\n}\n"
    in
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    Printf.printf "spliced checkpoint into BENCH_engine.json\n"
  end

let run_engine_fuzz () =
  section
    "ENGF | Susceptibility fuzzer throughput: programs/s and campaigns/s, \
     domains vs processes (splices \"fuzz\" into BENCH_engine.json)";
  let smoke = Sys.getenv_opt "FI_BENCH_SMOKE" <> None in
  let budget = if smoke then 4 else 24 in
  let variants = [ Delta.Sum_dmr; Delta.Dft 16 ] in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* Generation throughput: seeded program construction through the
     Mir.Check validity gate and a golden run, no campaigns. *)
  let (), t_gen =
    time (fun () ->
        let master = Prng.create ~seed:2024L in
        for _ = 1 to budget do
          let prog = Gen.program (Prng.create ~seed:(Prng.next_int64 master)) in
          ignore (Golden.run (Codegen.compile prog))
        done)
  in
  (* Differential-hunt throughput: each program is one baseline campaign
     plus one per variant, so the hunt conducts budget*(1+|variants|)
     campaigns.  Shrinking is off: it measures the shrinker, not the
     engine. *)
  let hunt backend =
    time (fun () ->
        Delta.run ~backend ~jobs:2 ~variants ~shrink_budget:0 ~seed:2024L
          ~budget ())
  in
  let h_dom, t_dom = hunt Pool.Domains in
  let h_proc, t_proc = hunt Pool.Processes in
  let campaigns = budget * (1 + List.length variants) in
  let identical = h_dom.Delta.findings = h_proc.Delta.findings in
  Printf.printf "programs generated  : %d  (%.1f programs/s)\n" budget
    (float_of_int budget /. t_gen);
  Printf.printf "campaigns per hunt  : %d\n" campaigns;
  Printf.printf
    "domains   -j 2      : %6.2f s  (%.1f campaigns/s, %d findings)\n" t_dom
    (float_of_int campaigns /. t_dom)
    (List.length h_dom.Delta.findings);
  Printf.printf
    "processes -j 2      : %6.2f s  (%.1f campaigns/s, %d findings)\n" t_proc
    (float_of_int campaigns /. t_proc)
    (List.length h_proc.Delta.findings);
  Printf.printf "identical findings  : %b\n" identical;
  if not identical then begin
    Printf.eprintf
      "engine-fuzz: domains and processes hunts disagree on findings\n";
    exit 1
  end;
  if smoke then
    Printf.printf
      "smoke mode: backend agreement verified; BENCH_engine.json left \
       untouched\n"
  else begin
    (* Same idempotent splice discipline as the checkpoint section. *)
    let path = "BENCH_engine.json" in
    let base =
      if Sys.file_exists path then begin
        let ic = open_in_bin path in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        text
      end
      else "{\n  \"benchmark\": \"bin_sem2/baseline\"\n}\n"
    in
    let find_sub hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec scan i =
        if i + nn > nh then None
        else if String.sub hay i nn = needle then Some i
        else scan (i + 1)
      in
      scan 0
    in
    let fz_json =
      Printf.sprintf
        "{\n\
        \    \"budget\": %d,\n\
        \    \"programs_per_sec\": %.1f,\n\
        \    \"campaigns\": %d,\n\
        \    \"domains\": {\"seconds\": %.3f, \"campaigns_per_sec\": %.1f, \
         \"findings\": %d},\n\
        \    \"processes\": {\"seconds\": %.3f, \"campaigns_per_sec\": %.1f, \
         \"findings\": %d},\n\
        \    \"identical_findings\": %b\n\
        \  }"
        budget
        (float_of_int budget /. t_gen)
        campaigns t_dom
        (float_of_int campaigns /. t_dom)
        (List.length h_dom.Delta.findings)
        t_proc
        (float_of_int campaigns /. t_proc)
        (List.length h_proc.Delta.findings)
        identical
    in
    let trim_tail s =
      let n = ref (String.length s) in
      while !n > 0 && (s.[!n - 1] = '\n' || s.[!n - 1] = ' ') do
        decr n
      done;
      String.sub s 0 !n
    in
    let body =
      match find_sub base ",\n  \"fuzz\":" with
      | Some i -> String.sub base 0 i
      | None ->
          let t = trim_tail base in
          let n = String.length t in
          if n > 0 && t.[n - 1] = '}' then trim_tail (String.sub t 0 (n - 1))
          else t
    in
    let oc = open_out path in
    output_string oc (body ^ ",\n  \"fuzz\": " ^ fz_json ^ "\n}\n");
    close_out oc;
    Printf.printf "spliced fuzz into BENCH_engine.json\n"
  end

let run_engine_supervision () =
  section
    "ENGS | Supervision overhead and healing cost: undisturbed vs crashing \
     vs hanging workers (splices \"supervision\" into BENCH_engine.json)";
  let golden = Golden.run (Bin_sem2.baseline ()) in
  let serial = Scan.pruned golden in
  let jobs = 2 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let supervised ?shard_timeout () =
    Spec.make_policy ?shard_timeout ~max_retries:2 ~quarantine:true ()
  in
  let with_torture value f =
    Unix.putenv Worker.torture_var value;
    Fun.protect ~finally:(fun () -> Unix.putenv Worker.torture_var "") f
  in
  let run ?torture policy =
    let snap = ref None in
    let go () =
      time (fun () ->
          run_cell ~backend:Pool.Processes ~jobs
            ~observe:(fun s -> snap := Some s)
            (Spec.of_golden ~policy golden))
    in
    let result, t =
      match torture with None -> go () | Some v -> with_torture v go
    in
    let retries, kills =
      match !snap with
      | Some s -> (s.Progress.retries, s.Progress.kills)
      | None -> (0, 0)
    in
    (t, result.Engine.scan = serial, retries, kills)
  in
  (* Baseline: supervision off entirely — the seed engine's hot path. *)
  let t_plain, ok_plain, _, _ = run Spec.default_policy in
  (* Supervision armed but never triggered: the overhead claim. *)
  let t_sup, ok_sup, r_sup, k_sup = run (supervised ~shard_timeout:60. ()) in
  (* Every first worker crashes once: bounded retry heals in place. *)
  let t_crash, ok_crash, r_crash, _ =
    run ~torture:"exit:0:0" (supervised ())
  in
  (* One worker hangs: deadline kill + retry heals in place. *)
  let t_hang, ok_hang, _, k_hang =
    run ~torture:"hang:0:0" (supervised ~shard_timeout:0.5 ())
  in
  let overhead_pct = (t_sup -. t_plain) /. t_plain *. 100. in
  Printf.printf "unsupervised        : %6.2f s  (bit-identical %b)\n" t_plain
    ok_plain;
  Printf.printf "supervised, healthy : %6.2f s  (overhead %+.1f%%, \
                 bit-identical %b, retries %d, kills %d)\n"
    t_sup overhead_pct ok_sup r_sup k_sup;
  Printf.printf "crashing worker     : %6.2f s  (healed %b, retries %d)\n"
    t_crash ok_crash r_crash;
  Printf.printf "hung worker         : %6.2f s  (healed %b, kills %d)\n"
    t_hang ok_hang k_hang;
  let sup_json =
    Printf.sprintf
      "{\n\
      \    \"jobs\": %d,\n\
      \    \"unsupervised_seconds\": %.3f,\n\
      \    \"supervised_seconds\": %.3f,\n\
      \    \"overhead_percent\": %.2f,\n\
      \    \"healthy_bit_identical\": %b,\n\
      \    \"crash_heal_seconds\": %.3f,\n\
      \    \"crash_healed\": %b,\n\
      \    \"crash_retries\": %d,\n\
      \    \"hang_heal_seconds\": %.3f,\n\
      \    \"hang_healed\": %b,\n\
      \    \"hang_kills\": %d\n\
      \  }"
      jobs t_plain t_sup overhead_pct (ok_plain && ok_sup) t_crash ok_crash
      r_crash t_hang ok_hang k_hang
  in
  (* Splice into BENCH_engine.json next to the engine-parallel runs,
     replacing any previous supervision section (idempotent re-runs);
     write a minimal skeleton if engine-parallel has not run yet. *)
  let path = "BENCH_engine.json" in
  let base =
    if Sys.file_exists path then begin
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      text
    end
    else "{\n  \"benchmark\": \"bin_sem2/baseline\"\n}\n"
  in
  let find_sub hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec scan i =
      if i + nn > nh then None
      else if String.sub hay i nn = needle then Some i
      else scan (i + 1)
    in
    scan 0
  in
  let trim_tail s =
    let n = ref (String.length s) in
    while !n > 0 && (s.[!n - 1] = '\n' || s.[!n - 1] = ' ') do
      decr n
    done;
    String.sub s 0 !n
  in
  let body =
    match find_sub base ",\n  \"supervision\":" with
    | Some i -> String.sub base 0 i
    | None ->
        let t = trim_tail base in
        let n = String.length t in
        if n > 0 && t.[n - 1] = '}' then trim_tail (String.sub t 0 (n - 1))
        else t
  in
  let oc = open_out path in
  output_string oc (body ^ ",\n  \"supervision\": " ^ sup_json ^ "\n}\n");
  close_out oc;
  Printf.printf "spliced supervision into BENCH_engine.json\n"

let run_engine_net () =
  section
    "ENGN | Distributed engine: bin_sem2 over a loopback worker daemon vs \
     the Processes backend (splices \"net\" into BENCH_engine.json)";
  let golden = Golden.run (Bin_sem2.baseline ()) in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let serial, t_serial = time (fun () -> Scan.pruned golden) in
  let jobs = 2 in
  let procs, t_procs =
    time (fun () ->
        Engine.scan_exn
          (run_cell ~backend:Pool.Processes ~jobs (Spec.of_golden golden)))
  in
  match
    Remote.spawn_daemon Remote.daemon
      { Remote.default_config with workers = jobs }
  with
  | Error e -> Printf.printf "engine-net skipped: no daemon (%s)\n" e
  | Ok (pid, addr) ->
      Fun.protect
        ~finally:(fun () -> Remote.kill_daemon pid)
        (fun () ->
          let net, t_net =
            time (fun () ->
                Engine.scan_exn
                  (run_cell
                     ~backend:(Pool.Sockets [ Addr.to_string addr ])
                     ~jobs (Spec.of_golden golden)))
          in
          let identical = net = serial && procs = serial in
          let overhead_pct = (t_net -. t_procs) /. t_procs *. 100. in
          Printf.printf "serial Scan.pruned      : %6.2f s\n" t_serial;
          Printf.printf "processes -j %d          : %6.2f s\n" jobs t_procs;
          Printf.printf
            "sockets loopback -j %d   : %6.2f s  (overhead vs processes \
             %+.1f%%, bit-identical %b)\n"
            jobs t_net overhead_pct identical;
          let net_json =
            Printf.sprintf
              "{\n\
              \    \"transport\": \"tcp-loopback\",\n\
              \    \"jobs\": %d,\n\
              \    \"serial_seconds\": %.3f,\n\
              \    \"processes_seconds\": %.3f,\n\
              \    \"sockets_seconds\": %.3f,\n\
              \    \"overhead_vs_processes_pct\": %.1f,\n\
              \    \"bit_identical\": %b\n\
              \  }"
              jobs t_serial t_procs t_net overhead_pct identical
          in
          (* Splice next to the engine-parallel/supervision sections,
             replacing any previous net section (idempotent re-runs);
             write a minimal skeleton if engine-parallel has not run
             yet. *)
          let path = "BENCH_engine.json" in
          let base =
            if Sys.file_exists path then begin
              let ic = open_in_bin path in
              let text = really_input_string ic (in_channel_length ic) in
              close_in ic;
              text
            end
            else "{\n  \"benchmark\": \"bin_sem2/baseline\"\n}\n"
          in
          let find_sub hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec scan i =
              if i + nn > nh then None
              else if String.sub hay i nn = needle then Some i
              else scan (i + 1)
            in
            scan 0
          in
          let trim_tail s =
            let n = ref (String.length s) in
            while !n > 0 && (s.[!n - 1] = '\n' || s.[!n - 1] = ' ') do
              decr n
            done;
            String.sub s 0 !n
          in
          let body =
            match find_sub base ",\n  \"net\":" with
            | Some i -> String.sub base 0 i
            | None ->
                let t = trim_tail base in
                let n = String.length t in
                if n > 0 && t.[n - 1] = '}' then
                  trim_tail (String.sub t 0 (n - 1))
                else t
          in
          let oc = open_out path in
          output_string oc (body ^ ",\n  \"net\": " ^ net_json ^ "\n}\n");
          close_out oc;
          Printf.printf "spliced net into BENCH_engine.json\n")

let run_engine_cache () =
  section
    "ENGC | Result cache: bin_sem2 cold campaign vs warm replay from the \
     content-addressed store, plus service cache-hit dispatch latency \
     (splices \"cache\" into BENCH_engine.json)";
  let dir = Filename.temp_file "fibench" ".store" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun name -> Sys.remove (Filename.concat dir name))
           (Sys.readdir dir)
       with Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      let time f =
        let t0 = Unix.gettimeofday () in
        let r = f () in
        (r, Unix.gettimeofday () -. t0)
      in
      let golden = Golden.run (Bin_sem2.baseline ()) in
      let policy = Spec.make_policy ~catalogue:dir ~cache:dir () in
      let jobs = 2 in
      let run () =
        run_cell ~backend:Pool.Domains ~jobs (Spec.of_golden ~policy golden)
      in
      let cold, t_cold = time run in
      let warm, t_warm = time run in
      let identical = cold.Engine.scan = warm.Engine.scan in
      let speedup = t_cold /. t_warm in
      Printf.printf "cold campaign -j %d      : %6.2f s\n" jobs t_cold;
      Printf.printf
        "warm replay (cache hit) : %6.3f s  (speedup %.0fx, hit %b, \
         bit-identical %b)\n"
        t_warm speedup warm.Engine.cached identical;
      (* Cache-hit dispatch latency through the service front door: the
         store is warm, so each submit is answered without scheduling a
         single shard. *)
      let config =
        { Service.default_config with Service.artifacts = dir; jobs }
      in
      let t_dispatch =
        match Remote.spawn_daemon Service.daemon config with
        | Error e ->
            Printf.printf "service latency skipped: no daemon (%s)\n" e;
            nan
        | Ok (pid, addr) ->
            Fun.protect
              ~finally:(fun () -> Remote.kill_daemon pid)
              (fun () ->
                let cell =
                  Worker.cell_of_spec (Spec.of_golden ~policy golden)
                in
                let hit () =
                  match Service.submit ~addr [ cell ] with
                  | Ok [ (_, r) ] when r.Engine.cached -> ()
                  | Ok _ -> failwith "service returned a non-hit"
                  | Error msg -> failwith msg
                in
                hit () (* connect-path warmup *);
                let rounds = 10 in
                let (), t =
                  time (fun () ->
                      for _ = 1 to rounds do
                        hit ()
                      done)
                in
                let per = t /. float_of_int rounds in
                Printf.printf
                  "service cache-hit dispatch: %6.1f ms/submission (%d \
                   rounds)\n"
                  (per *. 1000.) rounds;
                per)
      in
      let cache_json =
        Printf.sprintf
          "{\n\
          \    \"jobs\": %d,\n\
          \    \"cold_seconds\": %.3f,\n\
          \    \"warm_seconds\": %.4f,\n\
          \    \"speedup\": %.1f,\n\
          \    \"warm_cached\": %b,\n\
          \    \"bit_identical\": %b,\n\
          \    \"service_hit_dispatch_ms\": %.2f\n\
          \  }"
          jobs t_cold t_warm speedup warm.Engine.cached identical
          (t_dispatch *. 1000.)
      in
      let path = "BENCH_engine.json" in
      let base =
        if Sys.file_exists path then begin
          let ic = open_in_bin path in
          let text = really_input_string ic (in_channel_length ic) in
          close_in ic;
          text
        end
        else "{\n  \"benchmark\": \"bin_sem2/baseline\"\n}\n"
      in
      let find_sub hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec scan i =
          if i + nn > nh then None
          else if String.sub hay i nn = needle then Some i
          else scan (i + 1)
        in
        scan 0
      in
      let trim_tail s =
        let n = ref (String.length s) in
        while !n > 0 && (s.[!n - 1] = '\n' || s.[!n - 1] = ' ') do
          decr n
        done;
        String.sub s 0 !n
      in
      let body =
        match find_sub base ",\n  \"cache\":" with
        | Some i -> String.sub base 0 i
        | None ->
            let t = trim_tail base in
            let n = String.length t in
            if n > 0 && t.[n - 1] = '}' then trim_tail (String.sub t 0 (n - 1))
            else t
      in
      let oc = open_out path in
      output_string oc (body ^ ",\n  \"cache\": " ^ cache_json ^ "\n}\n");
      close_out oc;
      Printf.printf "spliced cache into BENCH_engine.json\n")

let run_engine_faultspace () =
  section
    "ENGM | Fault-model throughput: experiments/second per pluggable model \
     through the shared engine (splices \"faultspace\" into \
     BENCH_engine.json)";
  let smoke = Sys.getenv_opt "FI_BENCH_SMOKE" <> None in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let program = if smoke then Mbox1.baseline () else Bin_sem2.baseline () in
  let golden = Golden.run program in
  let rt = Regspace.analyze program in
  let models =
    [ Faultspace.Bitflip_mem; Faultspace.Bitflip_reg; Faultspace.burst 3;
      Faultspace.burst ~row:2 3; Faultspace.Skip ]
  in
  let measured =
    List.map
      (fun model ->
        let spec =
          match model with
          | Faultspace.Bitflip_reg -> Spec.of_regspace rt
          | m -> Spec.of_golden ~model:m golden
        in
        let scan, seconds =
          time (fun () -> Engine.scan_exn (run_cell ~jobs:0 spec))
        in
        let experiments = Array.length scan.Scan.experiments in
        let rate = if seconds > 0. then float experiments /. seconds else 0. in
        Printf.printf "%-10s : %7d experiments  %6.2f s  %9.0f exp/s\n"
          (Faultspace.tag model) experiments seconds rate;
        (Faultspace.tag model, experiments, seconds, rate))
      models
  in
  if smoke then
    Printf.printf
      "smoke mode: per-model throughput measured; BENCH_engine.json left \
       untouched\n"
  else begin
    (* Same idempotent splice discipline as the other engine sections. *)
    let path = "BENCH_engine.json" in
    let base =
      if Sys.file_exists path then begin
        let ic = open_in_bin path in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        text
      end
      else "{\n  \"benchmark\": \"bin_sem2/baseline\"\n}\n"
    in
    let find_sub hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec scan i =
        if i + nn > nh then None
        else if String.sub hay i nn = needle then Some i
        else scan (i + 1)
      in
      scan 0
    in
    let trim_tail s =
      let n = ref (String.length s) in
      while !n > 0 && (s.[!n - 1] = '\n' || s.[!n - 1] = ' ') do
        decr n
      done;
      String.sub s 0 !n
    in
    let fs_json =
      Printf.sprintf "{\n%s\n  }"
        (String.concat ",\n"
           (List.map
              (fun (tag, experiments, seconds, rate) ->
                Printf.sprintf
                  "    \"%s\": {\"experiments\": %d, \"seconds\": %.3f, \
                   \"per_second\": %.0f}"
                  tag experiments seconds rate)
              measured))
    in
    let body =
      match find_sub base ",\n  \"faultspace\":" with
      | Some i -> String.sub base 0 i
      | None ->
          let t = trim_tail base in
          let n = String.length t in
          if n > 0 && t.[n - 1] = '}' then trim_tail (String.sub t 0 (n - 1))
          else t
    in
    let oc = open_out path in
    output_string oc (body ^ ",\n  \"faultspace\": " ^ fs_json ^ "\n}\n");
    close_out oc;
    Printf.printf "spliced faultspace into BENCH_engine.json\n"
  end

let run_matrix_parallel () =
  section
    "ENGM | Matrix engine: paper pairs back-to-back serial vs one \
     run_matrix (emits BENCH_matrix.json)";
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* Back-to-back serial conductors: the pre-matrix way of covering the
     Figure-2 cells. *)
  let serial, t_serial =
    time (fun () ->
        List.concat_map
          (fun (_, baseline, hardened) ->
            [ Scan.pruned (Golden.run (baseline ()));
              Scan.pruned ~variant:"sum+dmr" (Golden.run (hardened ())) ])
          Suite.paper_pairs)
  in
  let runs =
    List.map
      (fun jobs ->
        let scans, t =
          time (fun () ->
              List.map Engine.scan_exn
                (Engine.run_matrix_results ~jobs (Suite.paper_specs ())))
        in
        (jobs, t, List.for_all2 (fun a b -> a = b) scans serial))
      [ 1; 2; 4 ]
  in
  let cores = Pool.default_jobs () in
  let experiments =
    List.fold_left (fun n s -> n + Array.length s.Scan.experiments) 0 serial
  in
  Printf.printf "host cores          : %d\n" cores;
  Printf.printf "matrix cells        : %d (%d experiments)\n"
    (List.length serial) experiments;
  Printf.printf "back-to-back serial : %6.2f s\n" t_serial;
  List.iter
    (fun (jobs, t, identical) ->
      Printf.printf
        "run_matrix -j %-2d    : %6.2f s  (speedup %.2fx, bit-identical %b)\n"
        jobs t (t_serial /. t) identical)
    runs;
  if cores = 1 then
    Printf.printf
      "note: single-core host — parallel speedup is not observable here;\n\
      \      the matrix still shares one pool and merges identically.\n";
  let json =
    let run_fields =
      List.map
        (fun (jobs, t, identical) ->
          Printf.sprintf
            "    {\"jobs\": %d, \"seconds\": %.3f, \"speedup\": %.3f, \
             \"bit_identical\": %b}"
            jobs t (t_serial /. t) identical)
        runs
    in
    Printf.sprintf
      "{\n\
      \  \"matrix\": \"paper_pairs\",\n\
      \  \"host_cores\": %d,\n\
      \  \"cells\": %d,\n\
      \  \"experiments\": %d,\n\
      \  \"serial_seconds\": %.3f,\n\
      \  \"run_matrix\": [\n%s\n  ]\n\
       }\n"
      cores (List.length serial) experiments t_serial
      (String.concat ",\n" run_fields)
  in
  let oc = open_out "BENCH_matrix.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_matrix.json\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                          *)
(* ------------------------------------------------------------------ *)

let perf_tests () =
  let open Bechamel in
  let hi_golden = Golden.run (Hi.program ()) in
  let bin_image = Bin_sem2.baseline () in
  let bin_golden = Golden.run bin_image in
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
    Test.make ~name:"F3-hi-full-scan"
      (Staged.stage (fun () -> ignore (Scan.pruned hi_golden)));
    Test.make ~name:"F2-golden-run-bin-sem2"
      (Staged.stage (fun () ->
           let m = Machine.create bin_image in
           ignore (Machine.run m ~limit:10_000_000)));
    Test.make ~name:"F2-one-experiment"
      (Staged.stage
         (let coord =
            { Coordspace.cycle = bin_golden.Golden.cycles / 2; bit = 64 }
          in
          fun () -> ignore (Injector.run_at bin_golden coord)));
    Test.make ~name:"P2-sampling-256"
      (Staged.stage (fun () ->
           let rng = Prng.create ~seed:7L in
           ignore (Sampler.uniform_raw rng ~samples:256 hi_golden)));
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
          fun () -> ignore (Machine.Snapshot.restore snap ~tracer:None)));
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
    ("engine", run_engine);
    ("engine-parallel", run_engine_parallel);
    ("engine-checkpoint", run_engine_checkpoint);
    ("engine-fuzz", run_engine_fuzz);
    ("engine-supervision", run_engine_supervision);
    ("engine-net", run_engine_net);
    ("engine-cache", run_engine_cache);
    ("engine-faultspace", run_engine_faultspace);
    ("matrix-parallel", run_matrix_parallel);
    ("optimization", run_optimization);
    ("perf", run_perf);
  ]

let () =
  (* If this process was exec'd as a campaign worker (the engine's
     process backend re-execs the hosting binary) or as a remote-worker
     daemon (the sockets backend does the same), serve and exit. *)
  Worker.guard ();
  Remote.guard ();
  Service.guard ();
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
