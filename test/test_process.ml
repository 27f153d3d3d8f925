(* Tests for the fork/exec process backend (Pool.Processes): differential
   equivalence against the Domains backend and the serial scans, the
   unified jobs resolution, journal-corruption classification (torn tail
   vs storage corruption vs duplicate records), one quick worker-crash
   round trip, and workers whose hosting binary prints to stdout.  The
   slow/adversarial crash matrix lives in torture.ml behind the @torture
   alias. *)

let hi_golden = lazy (Golden.run (Hi.program ()))
let hi_serial =
  lazy Faultspace.(scan (of_golden Bitflip_mem (Lazy.force hi_golden)))
let hi_reg_serial =
  lazy Faultspace.(scan (of_golden Bitflip_reg (Lazy.force hi_golden)))
let hi_reg () =
  Spec.of_golden ~model:Faultspace.Bitflip_reg (Lazy.force hi_golden)
let flag1_golden = lazy (Golden.run (Flag1.baseline ()))
let flag1_serial =
  lazy Faultspace.(scan (of_golden Bitflip_mem (Lazy.force flag1_golden)))

let check_scans_identical msg serial parallel =
  Alcotest.(check bool) (msg ^ " (structural)") true (serial = parallel);
  Alcotest.(check string)
    (msg ^ " (serialised)")
    (Csv_io.to_string serial)
    (Csv_io.to_string parallel)

(* A journal path in a fresh directory of its own, so a test can check
   that a campaign leaves nothing beside its journal. *)
let with_temp_file f =
  let dir = Filename.temp_file "fiprocess" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name -> try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f (Filename.concat dir "campaign.journal"))

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Unified jobs resolution and backend naming                         *)
(* ------------------------------------------------------------------ *)

let test_resolve_jobs () =
  Alcotest.(check int) "explicit" 3 (Pool.resolve_jobs ~jobs:3 ());
  Alcotest.(check int) "0 means all cores" (Pool.default_jobs ())
    (Pool.resolve_jobs ~jobs:0 ());
  Alcotest.(check int) "omitted means all cores" (Pool.default_jobs ())
    (Pool.resolve_jobs ());
  Alcotest.check_raises "negative"
    (Invalid_argument
       "Pool.resolve_jobs: negative job count -2 (use 0 for all cores)")
    (fun () -> ignore (Pool.resolve_jobs ~jobs:(-2) ()))

(* ------------------------------------------------------------------ *)
(* Differential: Processes = Domains = serial                         *)
(* ------------------------------------------------------------------ *)

let test_processes_equal_serial_memory () =
  let serial = Lazy.force hi_serial in
  let spec = Spec.of_golden (Lazy.force hi_golden) in
  List.iter
    (fun jobs ->
      let proc = Drive.scan ~backend:Pool.Processes ~jobs spec in
      check_scans_identical
        (Printf.sprintf "hi processes -j %d = serial" jobs)
        serial proc;
      check_scans_identical
        (Printf.sprintf "hi processes -j %d = domains" jobs)
        (Drive.scan ~backend:Pool.Domains ~jobs spec)
        proc)
    [ 1; 2; 4 ]

let test_processes_equal_serial_registers () =
  let serial = Lazy.force hi_reg_serial in
  List.iter
    (fun jobs ->
      check_scans_identical
        (Printf.sprintf "hi registers processes -j %d" jobs)
        serial
        (Drive.scan ~backend:Pool.Processes ~jobs (hi_reg ())))
    [ 1; 2 ]

let test_processes_matrix () =
  let specs =
    [
      Spec.of_golden (Lazy.force hi_golden);
      hi_reg ();
      Spec.of_golden (Lazy.force flag1_golden);
    ]
  in
  let serials =
    [
      Lazy.force hi_serial;
      Lazy.force hi_reg_serial;
      Lazy.force flag1_serial;
    ]
  in
  let snap = ref None in
  let scans =
    Drive.scans ~backend:Pool.Processes ~jobs:2
      ~observe:(fun s -> snap := Some s)
      specs
  in
  List.iteri
    (fun i (serial, scan) ->
      check_scans_identical (Printf.sprintf "matrix cell %d" i) serial scan)
    (List.combine serials scans);
  match !snap with
  | None -> Alcotest.fail "observe never called"
  | Some s ->
      Alcotest.(check bool) "finished" true (Progress.finished s);
      Alcotest.(check int) "all shards" s.Progress.shards_total
        s.Progress.shards_done

(* Engine under Processes == serial scan on random compiled MIR
   programs: the job crosses the exec boundary marshalled, so this also
   exercises spec marshalling on arbitrary programs. *)
let qcheck_processes_equal_serial =
  QCheck.Test.make ~name:"process backend equals serial on random programs"
    ~count:3
    QCheck.(pair (int_bound 1000) (int_range 1 3))
    (fun (seed, jobs) ->
      let open Builder in
      let k = 1 + (seed mod 4) in
      let source =
        prog
          ~name:(Printf.sprintf "prand%d" seed)
          [ global "acc" ~init:[ seed mod 9 ]; array "buf" 3 ~init:[ 3; 1; 4 ] ]
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
      = Drive.scan ~backend:Pool.Processes ~jobs (Spec.of_golden golden))

(* ------------------------------------------------------------------ *)
(* Journaled resume under the process backend                         *)
(* ------------------------------------------------------------------ *)

let policy ~journal ?(resume = false) ?shard_size () =
  Spec.make_policy ~journal ~resume ?shard_size ()

let test_processes_resume () =
  let serial = Lazy.force flag1_serial in
  let golden = Lazy.force flag1_golden in
  with_temp_file (fun path ->
      let full =
        Drive.scan ~backend:Pool.Processes ~jobs:2
          (Spec.of_golden ~policy:(policy ~journal:path ()) golden)
      in
      check_scans_identical "journaled process run" serial full;
      (* Cut the journal back to half its shards plus a torn tail. *)
      let text = read_file path in
      let lines = String.split_on_char '\n' text in
      let keep = 1 + ((List.length lines - 1) / 2) in
      write_file path
        (String.concat "\n" (List.filteri (fun i _ -> i < keep) lines)
        ^ "\nf00dfeed torn-shard-rec");
      let snap = ref None in
      let resumed =
        Drive.scan ~backend:Pool.Processes ~jobs:2
          ~observe:(fun s -> snap := Some s)
          (Spec.of_golden ~policy:(policy ~journal:path ~resume:true ()) golden)
      in
      check_scans_identical "process resume = uninterrupted" serial resumed;
      match !snap with
      | None -> Alcotest.fail "observe never called"
      | Some s ->
          Alcotest.(check bool) "recovered shards" true
            (s.Progress.resumed_classes > 0);
          Alcotest.(check int) "completed everything" s.Progress.classes_total
            s.Progress.classes_done)

(* ------------------------------------------------------------------ *)
(* Journal corruption taxonomy                                        *)
(* ------------------------------------------------------------------ *)

let journaled_run ?(shard_size = 1) () =
  with_temp_file (fun path ->
      ignore
        (Drive.scan ~jobs:1
           (Spec.of_golden
              ~policy:(policy ~journal:path ~shard_size ())
              (Lazy.force hi_golden)));
      read_file path)

let test_replay_classification () =
  with_temp_file (fun path ->
      let text = journaled_run () in
      write_file path text;
      (match Journal.replay path with
      | Some (_, records, Journal.Clean) ->
          Alcotest.(check int) "two shard records" 2 (List.length records)
      | _ -> Alcotest.fail "expected a clean replay");
      (* A crashed append leaves a torn (newline-less) tail. *)
      write_file path (text ^ "deadbeef par");
      (match Journal.replay path with
      | Some (_, _, Journal.Torn_tail n) ->
          Alcotest.(check int) "torn bytes" 12 n
      | _ -> Alcotest.fail "expected a torn tail");
      (* A complete line with a bad CRC is storage corruption. *)
      write_file path (text ^ "deadbeef bad-crc-line\n");
      match Journal.replay path with
      | Some (_, _, Journal.Corrupt_record { line }) ->
          Alcotest.(check int) "corrupt line" 4 line
      | _ -> Alcotest.fail "expected a corrupt record")

let test_resume_rejects_corrupt_journal () =
  let golden = Lazy.force hi_golden in
  with_temp_file (fun path ->
      let text = journaled_run () in
      (* Flip a byte inside the middle record's payload: every line is
         still complete, so this cannot be a crash artifact. *)
      let target = String.index text '\n' + 12 in
      write_file path
        (String.mapi (fun i c -> if i = target then 'X' else c) text);
      let resume () =
        ignore
          (Drive.scan ~jobs:1
             (Spec.of_golden
                ~policy:(policy ~journal:path ~resume:true ~shard_size:1 ())
                golden))
      in
      (match resume () with
      | () -> Alcotest.fail "expected Journal_mismatch on corruption"
      | exception Engine.Journal_mismatch msg ->
          Alcotest.(check bool) "names the line" true
            (String.length msg > 0)
      (* The corrupt journal was left untouched: resume must not have
         truncated the evidence away. *));
      match Journal.replay path with
      | Some (_, _, Journal.Corrupt_record _) -> ()
      | _ -> Alcotest.fail "corrupt journal was modified by failed resume")

let test_resume_rejects_duplicate_record () =
  let golden = Lazy.force hi_golden in
  with_temp_file (fun path ->
      let text = journaled_run () in
      (* Re-append the first shard record verbatim: CRC-valid, but the
         shard is already journalled. *)
      let first_record =
        match String.split_on_char '\n' text with
        | _header :: record :: _ -> record
        | _ -> Alcotest.fail "journal too short"
      in
      write_file path (text ^ first_record ^ "\n");
      match
        Drive.scan ~jobs:1
          (Spec.of_golden
             ~policy:(policy ~journal:path ~resume:true ~shard_size:1 ())
             golden)
      with
      | _ -> Alcotest.fail "expected Journal_mismatch on duplicate"
      | exception Engine.Journal_mismatch msg ->
          Alcotest.(check bool) "mentions duplicate" true
            (String.length msg > 0))

(* ------------------------------------------------------------------ *)
(* Quick crash round trip (the full matrix lives behind @torture)     *)
(* ------------------------------------------------------------------ *)

let with_torture value f =
  Unix.putenv Worker.torture_var value;
  Fun.protect ~finally:(fun () -> Unix.putenv Worker.torture_var "") f

let test_worker_crash_and_resume () =
  let serial = Lazy.force hi_serial in
  let golden = Lazy.force hi_golden in
  with_temp_file (fun path ->
      let spec resume =
        Spec.of_golden
          ~policy:(policy ~journal:path ~resume ~shard_size:1 ())
          golden
      in
      (* Worker 0 exits (code 7) before conducting anything; worker 1
         finishes its share.  The parent must report the death, keep the
         journal valid, and resume to the bit-identical result. *)
      (match
         with_torture "exit:0:0" (fun () ->
             Drive.scan ~backend:Pool.Processes ~jobs:2 (spec false))
       with
      | _ -> Alcotest.fail "expected Worker_failed"
      | exception Engine.Worker_failed msg ->
          Alcotest.(check bool) "reports exit code" true
            (String.length msg > 0));
      (match Journal.replay path with
      | Some (_, _, Journal.Clean) -> ()
      | _ -> Alcotest.fail "journal not CRC-valid after worker death");
      let resumed =
        Drive.scan ~backend:Pool.Processes ~jobs:2 (spec true)
      in
      check_scans_identical "crash + resume = serial" serial resumed;
      (* Workers write no files: the parent's journal is all there is. *)
      Alcotest.(check (array string)) "only the journal on disk"
        [| Filename.basename path |]
        (Sys.readdir (Filename.dirname path)))

(* A hosting binary may print to stdout before [Worker.guard] runs:
   test/main.ml prints a doorbell-lookalike banner when [banner_var] is
   set.  A local worker's stdout is the parent's stderr, so the banner
   never reaches the frame stream.  Healthy workers give the serial
   result with no supervision event; a hung worker is still reported as
   hung — no banner line counted as a heartbeat, let alone progress. *)
let banner_var = "FI_TEST_WORKER_BANNER"

let test_stray_stdout () =
  let serial = Lazy.force hi_serial in
  let golden = Lazy.force hi_golden in
  (* The healthy run is unsupervised, so any worker failure raises; the
     hung one needs a deadline to end. *)
  let run ?torture policy =
    let events = ref [] in
    let snap = ref None in
    let result =
      with_torture (Option.value torture ~default:"") (fun () ->
          Drive.cell ~backend:Pool.Processes ~jobs:2
            ~observe:(fun s -> snap := Some s)
            ~on_event:(fun msg -> events := msg :: !events)
            (Spec.of_golden ~policy golden))
    in
    check_scans_identical "banner-printing workers = serial" serial
      result.Engine.scan;
    (String.concat "\n" !events, Option.get !snap)
  in
  Unix.putenv banner_var "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv banner_var "")
    (fun () ->
      let events, snap = run (Spec.make_policy ~shard_size:1 ()) in
      Alcotest.(check string) "no supervision event" "" events;
      Alcotest.(check int) "no retries" 0 snap.Progress.retries;
      Alcotest.(check int) "every shard done once" snap.Progress.shards_total
        snap.Progress.shards_done;
      let events, snap =
        run ~torture:"hang:0:0"
          (Spec.make_policy ~shard_size:1 ~shard_timeout:0.3 ~max_retries:2
             ())
      in
      Alcotest.(check bool) "hung worker reported as hung" true
        (Astring_contains.contains events "hung"
        && not (Astring_contains.contains events "stalled"));
      Alcotest.(check bool) "hung worker killed" true (snap.Progress.kills >= 1))

let suite =
  ( "process-backend",
    [
      Alcotest.test_case "resolve_jobs is the single authority" `Quick
        test_resolve_jobs;
      Alcotest.test_case "processes = domains = serial (memory)" `Quick
        test_processes_equal_serial_memory;
      Alcotest.test_case "processes = serial (registers)" `Quick
        test_processes_equal_serial_registers;
      Alcotest.test_case "processes matrix" `Slow test_processes_matrix;
      QCheck_alcotest.to_alcotest qcheck_processes_equal_serial;
      Alcotest.test_case "processes journaled resume" `Slow
        test_processes_resume;
      Alcotest.test_case "replay classifies torn vs corrupt" `Quick
        test_replay_classification;
      Alcotest.test_case "resume rejects corrupt journal" `Quick
        test_resume_rejects_corrupt_journal;
      Alcotest.test_case "resume rejects duplicate record" `Quick
        test_resume_rejects_duplicate_record;
      Alcotest.test_case "worker crash + resume" `Quick
        test_worker_crash_and_resume;
      Alcotest.test_case "stray worker stdout never reaches the frames" `Quick
        test_stray_stdout;
    ] )
