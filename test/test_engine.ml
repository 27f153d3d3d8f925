(* Tests for the parallel campaign engine (lib/engine): CRC32 vectors,
   shard-plan invariants, the Domain pool, journal durability semantics,
   and the headline guarantees — a parallel campaign is bit-identical to
   the serial Scan.pruned for any worker count, and a journaled campaign
   killed partway resumes to the identical result without re-conducting
   finished shards. *)

(* ------------------------------------------------------------------ *)
(* Fixtures                                                           *)
(* ------------------------------------------------------------------ *)

let hi_golden = lazy (Golden.run (Hi.program ()))
let hi_serial = lazy (Scan.pruned (Lazy.force hi_golden))
let flag1_golden = lazy (Golden.run (Flag1.baseline ()))
let flag1_serial = lazy (Scan.pruned (Lazy.force flag1_golden))

let check_scans_identical msg serial parallel =
  (* Structural equality covers every field; CSV text equality pins the
     byte-for-byte claim. *)
  Alcotest.(check bool) (msg ^ " (structural)") true (serial = parallel);
  Alcotest.(check string)
    (msg ^ " (serialised)")
    (Csv_io.to_string serial)
    (Csv_io.to_string parallel)

(* A memory-campaign spec over [golden] with the given policy knobs. *)
let spec ?shard_size ?journal ?resume golden =
  Spec.of_golden ~policy:(Spec.make_policy ?shard_size ?journal ?resume ())
    golden

let with_temp_file f =
  let path = Filename.temp_file "fiengine" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* CRC32                                                              *)
(* ------------------------------------------------------------------ *)

let test_crc32_vectors () =
  (* The catalogue check value for CRC-32/ISO-HDLC. *)
  Alcotest.(check int) "123456789" 0xcbf43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  Alcotest.(check string) "hex" "cbf43926" (Crc32.to_hex 0xcbf43926);
  Alcotest.(check (option int)) "hex roundtrip" (Some 0xcbf43926)
    (Crc32.of_hex "cbf43926");
  Alcotest.(check (option int)) "bad hex" None (Crc32.of_hex "xyz");
  Alcotest.(check (option int)) "short hex" None (Crc32.of_hex "cbf439")

let test_crc32_streaming () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let split = 17 in
  let chained =
    Crc32.update
      (Crc32.update 0 s ~pos:0 ~len:split)
      s ~pos:split
      ~len:(String.length s - split)
  in
  Alcotest.(check int) "chained = whole" (Crc32.string s) chained

(* ------------------------------------------------------------------ *)
(* Shard plans                                                        *)
(* ------------------------------------------------------------------ *)

let test_shard_plan_invariants () =
  let defuse = (Lazy.force flag1_golden).Golden.defuse in
  let classes = Defuse.experiment_classes defuse in
  List.iter
    (fun shard_size ->
      let plan = Shard.plan ~shard_size classes in
      let total = Array.length classes in
      Alcotest.(check int) "covers all classes" total plan.Shard.classes_total;
      (* order is a permutation of 0..total-1 *)
      let seen = Array.make total false in
      Array.iter (fun i -> seen.(i) <- true) plan.Shard.order;
      Alcotest.(check bool) "order is a permutation" true
        (Array.for_all Fun.id seen);
      (* shards are contiguous, ordered, and cover every rank exactly once *)
      let covered = ref 0 in
      Array.iteri
        (fun i (s : Shard.t) ->
          Alcotest.(check int) "dense ids" i s.Shard.id;
          Alcotest.(check int) "contiguous" !covered s.Shard.lo;
          Alcotest.(check bool) "non-empty" true (Shard.classes_in s > 0);
          Alcotest.(check bool) "sized" true (Shard.classes_in s <= shard_size);
          covered := s.Shard.hi;
          (* the checkpoint invariant: t_end non-decreasing within a shard *)
          for rank = s.Shard.lo + 1 to s.Shard.hi - 1 do
            let t_end r = classes.(plan.Shard.order.(r)).Defuse.t_end in
            if t_end rank < t_end (rank - 1) then
              Alcotest.failf "shard %d: t_end decreases at rank %d" i rank
          done)
        plan.Shard.shards;
      Alcotest.(check int) "all ranks covered" total !covered)
    [ 1; 7; 100; 100_000 ]

let test_shard_plan_errors () =
  let defuse = (Lazy.force hi_golden).Golden.defuse in
  Alcotest.check_raises "shard_size 0" (Invalid_argument "Shard.plan: shard_size 0")
    (fun () -> ignore (Shard.plan ~shard_size:0 (Defuse.experiment_classes defuse)));
  Alcotest.(check int) "default size floor" 1 (Shard.default_shard_size ~classes:0)

(* ------------------------------------------------------------------ *)
(* Pool                                                               *)
(* ------------------------------------------------------------------ *)

let test_pool_runs_all_tasks () =
  List.iter
    (fun jobs ->
      let hits = Array.make 100 0 in
      Pool.run ~jobs ~tasks:100 (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool)
        (Printf.sprintf "each task once (jobs %d)" jobs)
        true
        (Array.for_all (fun n -> n = 1) hits))
    [ 1; 2; 4; 9 ]

let test_pool_propagates_exception () =
  let ran = Atomic.make 0 in
  (match
     Pool.run ~jobs:3 ~tasks:50 (fun i ->
         ignore (Atomic.fetch_and_add ran 1);
         if i = 7 then failwith "boom")
   with
  | () -> Alcotest.fail "expected exception"
  | exception Failure msg -> Alcotest.(check string) "message" "boom" msg);
  Alcotest.(check bool) "stopped early" true (Atomic.get ran <= 50)

let test_pool_bad_args () =
  Alcotest.check_raises "jobs 0" (Invalid_argument "Pool.run: jobs 0")
    (fun () -> Pool.run ~jobs:0 ~tasks:1 ignore);
  Alcotest.check_raises "tasks -1" (Invalid_argument "Pool.run: tasks -1")
    (fun () -> Pool.run ~jobs:1 ~tasks:(-1) ignore)

(* ------------------------------------------------------------------ *)
(* Journal                                                            *)
(* ------------------------------------------------------------------ *)

let test_journal_roundtrip () =
  with_temp_file (fun path ->
      let w = Journal.create path ~header:"header v1" in
      Journal.append w "alpha";
      Journal.append w "beta gamma";
      Journal.close w;
      match Journal.load path with
      | None -> Alcotest.fail "load failed"
      | Some (header, records) ->
          Alcotest.(check string) "header" "header v1" header;
          Alcotest.(check (list string)) "records" [ "alpha"; "beta gamma" ]
            records)

let test_journal_rejects_newline () =
  with_temp_file (fun path ->
      let w = Journal.create path ~header:"h" in
      Fun.protect
        ~finally:(fun () -> Journal.close w)
        (fun () ->
          Alcotest.check_raises "newline"
            (Invalid_argument "Journal.append: payload contains a newline")
            (fun () -> Journal.append w "two\nlines")))

let append_raw path text =
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc text;
  close_out oc

let test_journal_tolerates_torn_tail () =
  with_temp_file (fun path ->
      let w = Journal.create path ~header:"h" in
      Journal.append w "complete";
      Journal.close w;
      (* A crash mid-write leaves a partial line. *)
      append_raw path "deadbeef par";
      (match Journal.load path with
      | Some (h, records) ->
          Alcotest.(check string) "header" "h" h;
          Alcotest.(check (list string)) "torn tail dropped" [ "complete" ]
            records
      | None -> Alcotest.fail "load failed");
      (* open_resume truncates the torn tail and appends cleanly. *)
      (match Journal.open_resume path with
      | Ok (Some (w, _, records)) ->
          Alcotest.(check int) "records survive" 1 (List.length records);
          Journal.append w "after-resume";
          Journal.close w
      | Ok None | Error _ -> Alcotest.fail "open_resume failed");
      match Journal.load path with
      | Some (_, records) ->
          Alcotest.(check (list string)) "clean append after truncation"
            [ "complete"; "after-resume" ] records
      | None -> Alcotest.fail "reload failed")

let test_journal_detects_corruption () =
  with_temp_file (fun path ->
      let w = Journal.create path ~header:"h" in
      Journal.append w "first";
      Journal.append w "second";
      Journal.close w;
      (* Flip one byte inside the second record's payload. *)
      let text =
        let ic = open_in_bin path in
        let t = really_input_string ic (in_channel_length ic) in
        close_in ic;
        t
      in
      let pos = String.length text - 3 in
      let corrupted =
        String.mapi (fun i c -> if i = pos then 'X' else c) text
      in
      let oc = open_out_bin path in
      output_string oc corrupted;
      close_out oc;
      match Journal.load path with
      | Some (_, records) ->
          Alcotest.(check (list string)) "suffix dropped at corruption"
            [ "first" ] records
      | None -> Alcotest.fail "load failed")

let test_journal_missing_file () =
  Alcotest.(check bool) "missing file" true
    (Journal.load "/nonexistent/fi.journal" = None)

(* ------------------------------------------------------------------ *)
(* Engine: parallel == serial                                         *)
(* ------------------------------------------------------------------ *)

let test_parallel_equals_serial_hi () =
  let golden = Lazy.force hi_golden in
  let serial = Lazy.force hi_serial in
  List.iter
    (fun jobs ->
      check_scans_identical
        (Printf.sprintf "hi -j %d" jobs)
        serial
        (Drive.scan ~jobs (Spec.of_golden golden)))
    [ 1; 2; 4 ]

let test_parallel_equals_serial_flag1 () =
  let golden = Lazy.force flag1_golden in
  let serial = Lazy.force flag1_serial in
  List.iter
    (fun jobs ->
      check_scans_identical
        (Printf.sprintf "flag1 -j %d" jobs)
        serial
        (Drive.scan ~jobs (Spec.of_golden golden)))
    [ 1; 2; 4 ]

let test_shard_size_irrelevant () =
  let golden = Lazy.force hi_golden in
  let serial = Lazy.force hi_serial in
  List.iter
    (fun shard_size ->
      check_scans_identical
        (Printf.sprintf "hi shard_size %d" shard_size)
        serial
        (Drive.scan ~jobs:2 (spec ~shard_size golden)))
    [ 1; 3; 1000 ]

(* Engine == serial on random compiled MIR programs with random shard
   geometry and worker counts. *)
let qcheck_engine_equals_serial =
  QCheck.Test.make ~name:"engine equals serial scan on random programs"
    ~count:4
    QCheck.(triple (int_bound 1000) (int_range 1 4) (int_range 1 9))
    (fun (seed, jobs, shard_size) ->
      let open Builder in
      let k = 1 + (seed mod 5) in
      let source =
        prog
          ~name:(Printf.sprintf "erand%d" seed)
          [ global "acc" ~init:[ seed mod 7 ]; array "buf" 3 ~init:[ 1; 2; 3 ] ]
          [
            func "main" ~locals:[ "i" ]
              (for_ "i" ~from:(i 0) ~below:(i k)
                 [
                   setg "acc" (g "acc" +: elem "buf" (l "i" %: i 3));
                   set_elem "buf" (l "i" %: i 3) (g "acc" ^: i seed);
                 ]
              @ [ out (g "acc" &: i 255); ret_unit ]);
          ]
      in
      let golden = Golden.run (Codegen.compile source) in
      Scan.pruned golden = Drive.scan ~jobs (spec ~shard_size golden))

let test_engine_progress_interface () =
  let golden = Lazy.force hi_golden in
  let snapshots = ref [] in
  ignore
    (Drive.scan ~jobs:1
       ~observe:(fun snap -> snapshots := snap :: !snapshots)
       (Spec.of_golden golden));
  ignore
    (List.fold_left
       (fun last (s : Progress.snapshot) ->
         Alcotest.(check bool) "classes_done monotonic" true
           (s.Progress.classes_done >= last);
         Alcotest.(check int) "total" 2 s.Progress.classes_total;
         Alcotest.(check int) "tally tracks classes_done"
           (8 * s.Progress.classes_done)
           (Outcome.tally_total s.Progress.tally);
         s.Progress.classes_done)
       0 (List.rev !snapshots));
  match !snapshots with
  | [] -> Alcotest.fail "observe never called"
  | final :: _ ->
      Alcotest.(check int) "one snapshot up front, then one per shard"
        (final.Progress.shards_total + 1)
        (List.length !snapshots);
      Alcotest.(check bool) "finished" true (Progress.finished final);
      Alcotest.(check int) "all experiments" 16 final.Progress.experiments_done;
      Alcotest.(check int) "no resumed classes" 0 final.Progress.resumed_classes;
      Alcotest.(check int) "shards" final.Progress.shards_total
        final.Progress.shards_done;
      (* the render line is a single line and mentions the class count *)
      let line = Progress.render final in
      Alcotest.(check bool) "render single line" false (String.contains line '\n')

let test_engine_bad_args () =
  let golden = Lazy.force hi_golden in
  (* jobs 0 means "all cores" — Pool.resolve_jobs is the single
     authority for both the engine and the CLI, so only negative counts
     are rejected, with Pool's own message. *)
  check_scans_identical "jobs 0 = all cores" (Lazy.force hi_serial)
    (Drive.scan ~jobs:0 (Spec.of_golden golden));
  Alcotest.check_raises "jobs -1"
    (Invalid_argument
       "Pool.resolve_jobs: negative job count -1 (use 0 for all cores)")
    (fun () -> ignore (Drive.scan ~jobs:(-1) (Spec.of_golden golden)));
  Alcotest.check_raises "resume without journal"
    (Invalid_argument "Engine.run_matrix_results: ~resume requires ~journal")
    (fun () -> ignore (Drive.scan (spec ~resume:true golden)))

(* ------------------------------------------------------------------ *)
(* Engine: journaled resume                                           *)
(* ------------------------------------------------------------------ *)

let truncate_journal_to path ~records =
  (* Keep the header plus [records] records, then simulate a torn tail. *)
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let lines = String.split_on_char '\n' text in
  let kept = List.filteri (fun i _ -> i <= records) lines in
  let oc = open_out_bin path in
  List.iter (fun l -> output_string oc (l ^ "\n")) kept;
  output_string oc "f00dfeed torn-shard-rec";
  close_out oc

let test_resume_truncated_journal () =
  let golden = Lazy.force flag1_golden in
  let serial = Lazy.force flag1_serial in
  with_temp_file (fun path ->
      (* Full journaled run, then cut the journal back mid-campaign. *)
      let full = Drive.scan ~jobs:2 (spec ~journal:path golden) in
      check_scans_identical "journaled run" serial full;
      let total_shards =
        match Journal.load path with
        | Some (_, records) -> List.length records
        | None -> Alcotest.fail "journal unreadable"
      in
      Alcotest.(check bool) "has shards" true (total_shards > 2);
      let keep = total_shards / 2 in
      truncate_journal_to path ~records:keep;
      (* Resume: must recover exactly the kept shards and conduct only
         the rest. *)
      let final_snapshot = ref None in
      let resumed =
        Drive.scan ~jobs:2
          ~observe:(fun s -> final_snapshot := Some s)
          (spec ~journal:path ~resume:true golden)
      in
      check_scans_identical "resumed = uninterrupted" serial resumed;
      (match !final_snapshot with
      | None -> Alcotest.fail "observe never called"
      | Some s ->
          Alcotest.(check bool) "recovered shards without re-conducting" true
            (s.Progress.resumed_classes > 0);
          Alcotest.(check int) "completed everything" s.Progress.classes_total
            s.Progress.classes_done);
      (* After the resumed run the journal is complete again: resuming
         once more conducts nothing. *)
      let snap = ref None in
      let again =
        Drive.scan ~jobs:2
          ~observe:(fun s -> snap := Some s)
          (spec ~journal:path ~resume:true golden)
      in
      check_scans_identical "fully-journaled rerun" serial again;
      match !snap with
      | Some s ->
          Alcotest.(check int) "zero conducted on complete journal"
            s.Progress.classes_total s.Progress.resumed_classes
      | None -> Alcotest.fail "observe never called")

exception Killed

let test_resume_after_crash () =
  (* Kill the campaign from inside (the observe hook raises once enough
     classes are done) and verify the journal's durable prefix resumes
     to the identical result. *)
  let golden = Lazy.force flag1_golden in
  let serial = Lazy.force flag1_serial in
  with_temp_file (fun path ->
      let classes_at_kill = ref 0 in
      (match
         Drive.scan ~jobs:2
           ~observe:(fun s ->
             if s.Progress.classes_done > s.Progress.classes_total / 3 then begin
               classes_at_kill := s.Progress.classes_done;
               raise Killed
             end)
           (spec ~journal:path golden)
       with
      | _ -> Alcotest.fail "expected the campaign to be killed"
      | exception Killed -> ());
      Alcotest.(check bool) "killed partway" true (!classes_at_kill > 0);
      (* The journal survived the crash with a valid prefix. *)
      let shards_before =
        match Journal.load path with
        | Some (_, records) -> List.length records
        | None -> Alcotest.fail "journal lost after crash"
      in
      let snap = ref None in
      let resumed =
        Drive.scan ~jobs:2
          ~observe:(fun s -> snap := Some s)
          (spec ~journal:path ~resume:true golden)
      in
      check_scans_identical "crash + resume = uninterrupted" serial resumed;
      match !snap with
      | Some s ->
          Alcotest.(check bool) "resumed the durable shards" true
            (shards_before = 0 || s.Progress.resumed_classes > 0)
      | None -> Alcotest.fail "observe never called")

let test_resume_wrong_campaign () =
  let golden_hi = Lazy.force hi_golden in
  let golden_flag1 = Lazy.force flag1_golden in
  with_temp_file (fun path ->
      ignore (Drive.scan ~jobs:1 (spec ~journal:path golden_hi));
      (match
         Drive.scan ~jobs:1 (spec ~journal:path ~resume:true golden_flag1)
       with
      | _ -> Alcotest.fail "expected Journal_mismatch"
      | exception Engine.Journal_mismatch _ -> ());
      (* A different shard geometry is a different campaign, too. *)
      match
        Drive.scan ~jobs:1
          (spec ~shard_size:1000 ~journal:path ~resume:true golden_hi)
      with
      | _ -> Alcotest.fail "expected Journal_mismatch (shard_size)"
      | exception Engine.Journal_mismatch _ -> ())

(* A refused resume closes the journal it reopened: a malformed shard
   record must not leak one descriptor per attempt. *)
let test_refused_resume_closes_journal () =
  if not (Sys.file_exists "/proc/self/fd") then Alcotest.skip ();
  let golden = Lazy.force hi_golden in
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  with_temp_file (fun path ->
      ignore (Drive.scan ~jobs:1 (spec ~journal:path golden));
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc (Journal.encode_line "shard=0 outcomes=zz" ^ "\n");
      close_out oc;
      let before = open_fds () in
      for _ = 1 to 5 do
        match Drive.scan ~jobs:1 (spec ~journal:path ~resume:true golden) with
        | _ -> Alcotest.fail "expected Journal_mismatch"
        | exception Engine.Journal_mismatch _ -> ()
      done;
      Alcotest.(check int) "descriptors after five refusals" before
        (open_fds ()))

let test_resume_missing_journal_starts_fresh () =
  let golden = Lazy.force hi_golden in
  with_temp_file (fun path ->
      Sys.remove path;
      let scan =
        Drive.scan ~jobs:1 (spec ~journal:path ~resume:true golden)
      in
      check_scans_identical "fresh despite --resume" (Lazy.force hi_serial) scan;
      Alcotest.(check bool) "journal created" true (Sys.file_exists path))

(* ------------------------------------------------------------------ *)
(* The two sampling resolvers agree, for every model                  *)
(* ------------------------------------------------------------------ *)

let check_estimates_agree msg (a : Sampler.estimate) (b : Sampler.estimate) =
  Alcotest.(check int) (msg ^ " population") a.Sampler.population b.Sampler.population;
  Alcotest.(check int) (msg ^ " samples") a.Sampler.samples b.Sampler.samples;
  Alcotest.(check int) (msg ^ " failures") a.Sampler.failures b.Sampler.failures;
  Alcotest.(check bool) (msg ^ " outcome counts") true
    (a.Sampler.outcome_counts = b.Sampler.outcome_counts)

(* At a fixed seed, conducting a draw's slots in-process and reading
   them from the engine's scan of the same cell give the same estimate:
   flag1 for a mid-size space, hi+dft for a padded skip cell. *)
let test_oracle_samplers_agree () =
  List.iter
    (fun (name, image) ->
      List.iter
        (fun model ->
          let label = name ^ "@" ^ Faultspace.tag model in
          let spec, cell =
            match model with
            | Faultspace.Bitflip_reg ->
                let r = Regspace.analyze image in
                (Spec.of_regspace r, Faultspace.of_regspace r)
            | m ->
                let g = Golden.run image in
                (Spec.of_golden ~model:m g, Faultspace.of_golden m g)
          in
          let scan = Drive.scan ~jobs:1 spec in
          let both msg draw =
            let oracle = Sampler.read scan (draw ()) in
            check_estimates_agree (label ^ " " ^ msg)
              (Sampler.conduct cell (draw ())) oracle;
            Alcotest.(check int) (label ^ " oracle conducts nothing") 0
              oracle.Sampler.conducted
          in
          both "uniform" (fun () ->
              Sampler.uniform_raw (Prng.create ~seed:11L) ~samples:1500 cell);
          both "biased" (fun () ->
              Sampler.biased_per_class (Prng.create ~seed:12L) ~samples:800 cell))
        Faultspace.[ Bitflip_mem; Bitflip_reg; burst 3; burst ~row:2 3; Skip ])
    [ ("flag1", Flag1.baseline ()); ("hi+dft", Hi.dft ()) ]

let suite =
  ( "engine",
    [
      Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
      Alcotest.test_case "crc32 streaming" `Quick test_crc32_streaming;
      Alcotest.test_case "shard plan invariants" `Quick
        test_shard_plan_invariants;
      Alcotest.test_case "shard plan errors" `Quick test_shard_plan_errors;
      Alcotest.test_case "pool runs all tasks" `Quick test_pool_runs_all_tasks;
      Alcotest.test_case "pool propagates exceptions" `Quick
        test_pool_propagates_exception;
      Alcotest.test_case "pool bad arguments" `Quick test_pool_bad_args;
      Alcotest.test_case "journal roundtrip" `Quick test_journal_roundtrip;
      Alcotest.test_case "journal rejects newlines" `Quick
        test_journal_rejects_newline;
      Alcotest.test_case "journal tolerates torn tail" `Quick
        test_journal_tolerates_torn_tail;
      Alcotest.test_case "journal detects corruption" `Quick
        test_journal_detects_corruption;
      Alcotest.test_case "journal missing file" `Quick test_journal_missing_file;
      Alcotest.test_case "parallel = serial (hi, j 1/2/4)" `Quick
        test_parallel_equals_serial_hi;
      Alcotest.test_case "parallel = serial (flag1, j 1/2/4)" `Slow
        test_parallel_equals_serial_flag1;
      Alcotest.test_case "shard size irrelevant" `Quick test_shard_size_irrelevant;
      QCheck_alcotest.to_alcotest qcheck_engine_equals_serial;
      Alcotest.test_case "engine progress interface" `Quick
        test_engine_progress_interface;
      Alcotest.test_case "engine bad arguments" `Quick test_engine_bad_args;
      Alcotest.test_case "resume from truncated journal" `Slow
        test_resume_truncated_journal;
      Alcotest.test_case "resume after crash" `Slow test_resume_after_crash;
      Alcotest.test_case "resume rejects foreign journal" `Quick
        test_resume_wrong_campaign;
      Alcotest.test_case "refused resume closes the journal" `Quick
        test_refused_resume_closes_journal;
      Alcotest.test_case "resume without journal file" `Quick
        test_resume_missing_journal_starts_fresh;
      Alcotest.test_case "oracle samplers agree" `Slow test_oracle_samplers_agree;
    ] )
