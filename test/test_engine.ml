(* Tests for the parallel campaign engine (lib/engine): CRC32 vectors,
   shard-plan invariants, the Domain pool, journal durability semantics,
   and the headline guarantees — a parallel campaign is bit-identical to
   the serial Faultspace.scan for any worker count, and a journaled campaign
   killed partway resumes to the identical result without re-conducting
   finished shards. *)

(* ------------------------------------------------------------------ *)
(* Fixtures                                                           *)
(* ------------------------------------------------------------------ *)

let hi_golden = lazy (Golden.run (Hi.program ()))
let hi_serial =
  lazy Faultspace.(scan (of_golden Bitflip_mem (Lazy.force hi_golden)))
let flag1_golden = lazy (Golden.run (Flag1.baseline ()))
let flag1_serial =
  lazy Faultspace.(scan (of_golden Bitflip_mem (Lazy.force flag1_golden)))

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
(* Campaign identity                                                  *)
(* ------------------------------------------------------------------ *)

(* Fingerprint, result-store key and the MD5 of the shard plan's rank
   order, per (cell, fault model, shard sizing).  A change to the first
   two orphans every stored journal and cache entry.  A change to the
   order is worse: a journal record stores its outcome characters in
   rank order and neither the fingerprint nor the key covers that order,
   so existing journals and cache entries would replay into the wrong
   class slots without any error. *)
let identity_pins =
  (* cell, model tag, weighted, fingerprint, cell key, MD5 of the order *)
  [
    ("hi", "mem", false, "629a37ea",
      "1e39168358a543c81ab035896dbfa07c", "d192e0c4ad64a9c35fe32972477e4cd8");
    ("hi", "mem", true, "f907225d",
      "927bf836c54bd7efa77188e588a5ba17", "d192e0c4ad64a9c35fe32972477e4cd8");
    ("hi", "reg", false, "5d1ca15c",
      "2c2caca84ab393c4a3b8ab830e9b766e", "a687d5edcdb79f7b9206a7e6885aa9bd");
    ("hi", "reg", true, "93d5d23e",
      "7e24dd637330efecdc925701c0aa75f9", "a687d5edcdb79f7b9206a7e6885aa9bd");
    ("hi", "burst3", false, "059a1623",
      "a9c5ca93fb6116ee6680d2279896cd8c", "d192e0c4ad64a9c35fe32972477e4cd8");
    ("hi", "burst3", true, "1bd85868",
      "58ed23ea77de84059e9910aee618158f", "d192e0c4ad64a9c35fe32972477e4cd8");
    ("hi", "burst3r2", false, "b9c07806",
      "24de18ec70cacabfab746f3c8b033c6f", "d192e0c4ad64a9c35fe32972477e4cd8");
    ("hi", "burst3r2", true, "5060d641",
      "6eff548f849dff9d4499cc38b17f81be", "d192e0c4ad64a9c35fe32972477e4cd8");
    ("hi", "skip", false, "aea4afd7",
      "c738b869d18548a3bc623eb5a0c394a8", "cfcd208495d565ef66e7dff9f98764da");
    ("hi", "skip", true, "07dccf7f",
      "aabc61dff6123e18507a26724dd21bca", "cfcd208495d565ef66e7dff9f98764da");
    ("flag1/sum+dmr", "mem", false, "e6449f78",
      "591ce2dce571d029339e43a17efb2468", "7406b053978da83e8bb0c882736ac930");
    ("flag1/sum+dmr", "mem", true, "4be6cdfe",
      "bdc0ad781668b4ca89239b36b0ab3bee", "7406b053978da83e8bb0c882736ac930");
    ("flag1/sum+dmr", "reg", false, "4d5a3f9b",
      "f78c982e2b8eb0eead9a5a49d5e74c5b", "3cfd51457463a0113ee14d3abe56b39d");
    ("flag1/sum+dmr", "reg", true, "112af6d1",
      "b877dc825ecea194c5e6f5a30f170adc", "3cfd51457463a0113ee14d3abe56b39d");
    ("flag1/sum+dmr", "burst3", false, "9f0778ad",
      "8637586568314d1fca2ef51b5eeb32dd", "7406b053978da83e8bb0c882736ac930");
    ("flag1/sum+dmr", "burst3", true, "bd26a842",
      "1835474982731f24b51e1016c067771d", "7406b053978da83e8bb0c882736ac930");
    ("flag1/sum+dmr", "burst3r2", false, "feff2104",
      "260e9d340e65e4dcd5d027676e6ba7cc", "7406b053978da83e8bb0c882736ac930");
    ("flag1/sum+dmr", "burst3r2", true, "124d4b57",
      "373847fe5258debbb6d169f41329878d", "7406b053978da83e8bb0c882736ac930");
    ("flag1/sum+dmr", "skip", false, "cfa82767",
      "76bfd232371823872a39afbc19ee5a6f", "da2af92c6c392aff55f34803dcae9c52");
    ("flag1/sum+dmr", "skip", true, "7539b15d",
      "71b8d543dc3dc6b5b68e3e0bf3f0abfc", "da2af92c6c392aff55f34803dcae9c52");
    ("bin_sem2/baseline", "mem", false, "9f8ca749",
      "100f1660c696a1ea66d7b0767ef9c5f3", "cb5cf95e7eb3b1118aa7732bff3b25bf");
    ("bin_sem2/baseline", "mem", true, "a25ad797",
      "f1e7ae28fe0dccc8c28f63724df6048d", "cb5cf95e7eb3b1118aa7732bff3b25bf");
    ("bin_sem2/baseline", "reg", false, "62e7889f",
      "b08c8cde9dff5fd373b9c108bfa70c12", "82ecb3e60552148208bc5326e3ca3bce");
    ("bin_sem2/baseline", "reg", true, "0acef2f6",
      "7e8b92116fc2042af14e21e4ce163b2d", "82ecb3e60552148208bc5326e3ca3bce");
    ("bin_sem2/baseline", "burst3", false, "8ba7d74b",
      "c4795c19fd3ca3dca012785b448ebce3", "cb5cf95e7eb3b1118aa7732bff3b25bf");
    ("bin_sem2/baseline", "burst3", true, "4c409dcb",
      "1ef35e4642b6c64bf7168321aba4a078", "cb5cf95e7eb3b1118aa7732bff3b25bf");
    ("bin_sem2/baseline", "burst3r2", false, "c069ae5d",
      "0ced091a2ab043cc9b9eb3bb075bdbd8", "cb5cf95e7eb3b1118aa7732bff3b25bf");
    ("bin_sem2/baseline", "burst3r2", true, "b8dfe6e3",
      "056820799649a1160a681fc525d06829", "cb5cf95e7eb3b1118aa7732bff3b25bf");
    ("bin_sem2/baseline", "skip", false, "84f5f7c0",
      "2e77de49d78c4b8a4ba90853737f678e", "f42fdb26c71a85580c1b172b45e5d0d4");
    ("bin_sem2/baseline", "skip", true, "16b42d6a",
      "eaa24efb390bd322cbc77afa9cf57452", "f42fdb26c71a85580c1b172b45e5d0d4");
  ]

let identity_cells =
  let suite benchmark variant model policy =
    match Suite.find ~benchmark ~variant with
    | Some e -> Suite.spec_of ~model ~policy e
    | None -> Alcotest.failf "no suite entry %s" benchmark
  in
  [
    ( "hi",
      fun model policy -> Spec.build ~model ~policy ~benchmark:"hi" Hi.program
    );
    ("flag1/sum+dmr", suite "flag1" Suite.Sum_dmr);
    ("bin_sem2/baseline", suite "bin_sem2" Suite.Baseline);
  ]

let order_digest (plan : Shard.plan) =
  Array.to_list plan.Shard.order
  |> List.map string_of_int |> String.concat "," |> Digest.string
  |> Digest.to_hex

let test_campaign_identity_pinned () =
  List.iter
    (fun (name, tag, weighted, fp, key, order) ->
      let model =
        match Faultspace.of_tag tag with
        | Ok m -> m
        | Error e -> Alcotest.fail e
      in
      let spec =
        (List.assoc name identity_cells) model (Spec.make_policy ~weighted ())
      in
      let label =
        Printf.sprintf "%s@%s %s" name tag
          (if weighted then "weight" else "count")
      in
      Alcotest.(check string) (label ^ " fingerprint") fp
        (Crc32.to_hex (Engine.fingerprint_spec spec));
      Alcotest.(check string) (label ^ " cell key") key
        (Worker.cell_key (Worker.cell_of_spec spec));
      let cell = Runcell.analyse spec in
      let plan = Runcell.plan_of_policy spec.Spec.policy cell.Runcell.classes in
      Alcotest.(check string) (label ^ " plan order") order (order_digest plan))
    identity_pins

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
      match Journal.replay path with
      | None -> Alcotest.fail "replay failed"
      | Some (header, records, _) ->
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
      (match Journal.replay path with
      | Some (h, records, _) ->
          Alcotest.(check string) "header" "h" h;
          Alcotest.(check (list string)) "torn tail dropped" [ "complete" ]
            records
      | None -> Alcotest.fail "replay failed");
      (* open_resume truncates the torn tail and appends cleanly. *)
      (match Journal.open_resume path with
      | Ok (Some (w, _, records)) ->
          Alcotest.(check int) "records survive" 1 (List.length records);
          Journal.append w "after-resume";
          Journal.close w
      | Ok None | Error _ -> Alcotest.fail "open_resume failed");
      match Journal.replay path with
      | Some (_, records, _) ->
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
      match Journal.replay path with
      | Some (_, records, _) ->
          Alcotest.(check (list string)) "suffix dropped at corruption"
            [ "first" ] records
      | None -> Alcotest.fail "replay failed")

(* Creating a journal over a finished one makes a new file: a reader
   that opened the old journal still reads it whole, where truncating
   the same inode in place would cut it under that reader. *)
let test_journal_create_is_fresh () =
  with_temp_file (fun path ->
      let w = Journal.create path ~header:"old" in
      Journal.append w "finished";
      Journal.close w;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let w = Journal.create path ~header:"new" in
          Journal.close w;
          let old = really_input_string ic (in_channel_length ic) in
          Alcotest.(check string) "the open descriptor reads the old journal"
            (Journal.encode_line "old" ^ "\n"
            ^ Journal.encode_line "finished" ^ "\n")
            old);
      match Journal.replay path with
      | Some (header, records, _) ->
          Alcotest.(check string) "the path holds the new journal" "new"
            header;
          Alcotest.(check (list string)) "with no old records" [] records
      | None -> Alcotest.fail "replay failed")

let test_journal_missing_file () =
  Alcotest.(check bool) "missing file" true
    (Journal.replay "/nonexistent/fi.journal" = None)

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
      Faultspace.(scan (of_golden Bitflip_mem golden))
      = Drive.scan ~jobs (spec ~shard_size golden))

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
        match Journal.replay path with
        | Some (_, records, _) -> List.length records
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
        match Journal.replay path with
        | Some (_, records, _) -> List.length records
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

(* The record alphabet: a right-length record with one character
   outside [Outcome.of_char]'s alphabet is malformed — [--resume]
   refuses the journal instead of decoding the record into some
   outcome. *)
let test_record_alphabet () =
  let golden = Lazy.force hi_golden in
  List.iter
    (fun c ->
      with_temp_file (fun path ->
          ignore (Drive.scan ~jobs:1 (spec ~journal:path golden));
          Journal_edit.set_last_outcome path c;
          match Drive.scan ~jobs:1 (spec ~journal:path ~resume:true golden) with
          | _ -> Alcotest.failf "resumed a record holding %C" c
          | exception Engine.Journal_mismatch _ -> ()))
    [ 'x'; 'N'; '\000'; '\255' ]

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

(* At a fixed seed, conducting a draw's slots in-process and reading
   them from the engine's scan of the same cell give the same estimate,
   field for field (the distinct-slot count included): flag1 for a
   mid-size space, hi+dft for a padded skip cell. *)
let test_oracle_samplers_agree () =
  List.iter
    (fun (name, image) ->
      List.iter
        (fun model ->
          let label = name ^ "@" ^ Faultspace.tag model in
          let g = Golden.run image in
          let spec = Spec.of_golden ~model g
          and cell = Faultspace.of_golden model g in
          let scan = Drive.scan ~jobs:1 spec in
          let both msg draw =
            let conducted = Sampler.conduct cell (draw ())
            and read = Sampler.read scan (draw ()) in
            if conducted <> read then
              Alcotest.failf
                "%s %s: conducted %d failures over %d distinct slots, read %d \
                 over %d"
                label msg conducted.Sampler.failures conducted.Sampler.distinct
                read.Sampler.failures read.Sampler.distinct
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
      Alcotest.test_case "campaign identity is pinned" `Quick
        test_campaign_identity_pinned;
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
      Alcotest.test_case "journal create leaves an open reader its file"
        `Quick test_journal_create_is_fresh;
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
      Alcotest.test_case "record alphabet" `Quick test_record_alphabet;
      Alcotest.test_case "resume without journal file" `Quick
        test_resume_missing_journal_starts_fresh;
      Alcotest.test_case "oracle samplers agree" `Slow test_oracle_samplers_agree;
    ] )
