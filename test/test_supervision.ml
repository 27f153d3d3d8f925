(* Tests for the self-healing supervision layer: heartbeat/deadline hang
   detection, bounded retry with backoff, shard quarantine, supervision
   journal records, the artifact-store compaction that rides on
   [Runcell.journal_finished], and the Domains-pool stall watchdog.
   Every process-backend test here is deliberately fast (sub-second
   deadlines on the two-class [hi] campaign); the slow adversarial
   crash × hang × retry × resume matrix lives in torture.ml behind
   @torture. *)

let contains = Astring_contains.contains
let hi_golden = lazy (Golden.run (Hi.program ()))
let hi_serial =
  lazy Faultspace.(scan (of_golden Bitflip_mem (Lazy.force hi_golden)))

let check_scans_identical msg serial parallel =
  Alcotest.(check bool) (msg ^ " (structural)") true (serial = parallel);
  Alcotest.(check string)
    (msg ^ " (serialised)")
    (Csv_io.to_string serial)
    (Csv_io.to_string parallel)

let with_temp_file f =
  let path = Filename.temp_file "fisup" ".journal" in
  Fun.protect
    ~finally:(fun () ->
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let with_torture value f =
  Unix.putenv Worker.torture_var value;
  Fun.protect ~finally:(fun () -> Unix.putenv Worker.torture_var "") f

(* A supervising policy over per-class shards: [hi] has exactly two
   experiment classes, so [shard_size = 1] yields shards 0 and 1. *)
let sup_policy ?journal ?(resume = false) ?shard_timeout ?(max_retries = 2)
    ?(quarantine = false) () =
  Spec.make_policy ?journal ~resume ~shard_size:1 ?shard_timeout ~max_retries
    ~quarantine ()

(* ------------------------------------------------------------------ *)
(* Supervision journal records                                        *)
(* ------------------------------------------------------------------ *)

let test_supervision_payload_roundtrip () =
  let roundtrip s =
    Runcell.parse_supervision (Runcell.supervision_payload s)
  in
  let retry =
    Runcell.Retry
      { shard = 3; attempt = 2; cause = "was killed by SIGKILL" }
  in
  Alcotest.(check bool) "retry roundtrips" true (roundtrip retry = Some retry);
  let quarantine =
    Runcell.Quarantine
      {
        shard = 7;
        attempts = 3;
        cause = "hung (no heartbeat for 1.2s, deadline 0.3s)";
      }
  in
  Alcotest.(check bool) "quarantine roundtrips (cause with spaces)" true
    (roundtrip quarantine = Some quarantine);
  (* Newlines would tear the journal's line framing: sanitized away. *)
  (match
     roundtrip (Runcell.Retry { shard = 0; attempt = 1; cause = "a\nb" })
   with
  | Some (Runcell.Retry { cause; _ }) ->
      Alcotest.(check string) "newline sanitized" "a b" cause
  | _ -> Alcotest.fail "sanitized retry did not parse");
  (* Ordinary shard payloads are not supervision records. *)
  Alcotest.(check bool) "shard payload rejected" true
    (Runcell.parse_supervision "shard=0 lo=0 n=4 deadbeef" = None);
  Alcotest.(check bool) "garbage rejected" true
    (Runcell.parse_supervision "sup retry shard=x attempt=y cause=z" = None)

(* ------------------------------------------------------------------ *)
(* Deadline kills: hung and stalled workers                           *)
(* ------------------------------------------------------------------ *)

(* Worker 0 — the call's first start — wedges silently before
   conducting anything; the supervisor must detect the missing heartbeat
   inside [shard_timeout], SIGKILL it, and a replacement worker (a fresh
   index within the call, so the torture no longer matches) completes
   the campaign bit-identically — with no manual --resume. *)
let heal_round_trip ~torture ~expect_reason () =
  let serial = Lazy.force hi_serial in
  let golden = Lazy.force hi_golden in
  let events = ref [] in
  let snap = ref None in
  let result =
    with_torture torture (fun () ->
        Drive.cell ~backend:Pool.Processes ~jobs:2
          ~observe:(fun s -> snap := Some s)
          ~on_event:(fun msg -> events := msg :: !events)
          (Spec.of_golden
             ~policy:(sup_policy ~shard_timeout:0.3 ())
             golden))
  in
  check_scans_identical "healed campaign = serial" serial result.Engine.scan;
  Alcotest.(check int) "nothing quarantined" 0
    (List.length result.Engine.quarantined);
  let all_events = String.concat "\n" !events in
  Alcotest.(check bool) "kill event names the reason" true
    (contains all_events expect_reason && contains all_events "SIGKILLed");
  match !snap with
  | None -> Alcotest.fail "observe never called"
  | Some s ->
      Alcotest.(check bool) "kills counted" true (s.Progress.kills >= 1);
      Alcotest.(check bool) "retries counted" true (s.Progress.retries >= 1);
      Alcotest.(check bool) "finished" true (Progress.finished s)

let test_hang_detection () =
  heal_round_trip ~torture:"hang:0:0" ~expect_reason:"hung" ()

let test_stall_detection () =
  heal_round_trip ~torture:"stall:0:0" ~expect_reason:"stalled" ()

(* A worker that crashes outright (no deadline needed) is retried the
   same way: the transient fault heals without --resume.  The retry
   event names the local worker's exit status — a SIGKILLed worker is
   reported by its signal, never as a corrupt frame, even though its
   death may cut a frame short. *)
let test_transient_crash_heals () =
  let serial = Lazy.force hi_serial in
  let golden = Lazy.force hi_golden in
  List.iter
    (fun (torture, expect_cause) ->
      let events = ref [] in
      let snap = ref None in
      let result =
        with_torture torture (fun () ->
            Drive.cell ~backend:Pool.Processes ~jobs:2
              ~observe:(fun s -> snap := Some s)
              ~on_event:(fun msg -> events := msg :: !events)
              (Spec.of_golden ~policy:(sup_policy ()) golden))
      in
      check_scans_identical (torture ^ ": healed crash = serial") serial
        result.Engine.scan;
      Alcotest.(check int) (torture ^ ": nothing quarantined") 0
        (List.length result.Engine.quarantined);
      let all_events = String.concat "\n" !events in
      Alcotest.(check bool)
        (torture ^ ": retry event names the exit status")
        true
        (contains all_events expect_cause
        && not (contains all_events "corrupt"));
      match !snap with
      | None -> Alcotest.fail "observe never called"
      | Some s ->
          Alcotest.(check bool) "retries counted" true (s.Progress.retries >= 1);
          Alcotest.(check int) "no deadline kills" 0 s.Progress.kills)
    [ ("exit:0:0", "exited with code 7"); ("sigkill:0:0", "was killed by SIGKILL") ]

(* ------------------------------------------------------------------ *)
(* Quarantine: a deterministically poisoned shard                     *)
(* ------------------------------------------------------------------ *)

(* [poison:1] SIGKILLs any worker the moment it starts conducting plan
   shard 1 — the fault follows the shard through every retry, which is
   exactly the case quarantine exists for.  The campaign must complete,
   return exact results for shard 0, isolate shard 1 with its budget
   and cause, journal the decision, and a later --resume without the
   poison must heal to the bit-identical serial scan. *)
let test_poison_quarantine_and_resume () =
  let serial = Lazy.force hi_serial in
  let golden = Lazy.force hi_golden in
  with_temp_file (fun path ->
      let degraded =
        with_torture "poison:1" (fun () ->
            Drive.cell ~backend:Pool.Processes ~jobs:2
              (Spec.of_golden
                 ~policy:
                   (sup_policy ~journal:path ~max_retries:1 ~quarantine:true
                      ())
                 golden))
      in
      (match degraded.Engine.quarantined with
      | [ q ] ->
          Alcotest.(check int) "poisoned shard isolated" 1 q.Engine.q_shard;
          Alcotest.(check int) "budget fully burned" 2 q.Engine.q_attempts;
          Alcotest.(check int) "one class carried" 1 q.Engine.q_classes;
          Alcotest.(check int) "class coordinates reported" 1
            (Array.length q.Engine.q_class_indices);
          Alcotest.(check bool) "cause names the signal" true
            (contains q.Engine.q_cause "SIGKILL");
          (* Every class outside the quarantined shard is still exact. *)
          let excluded = q.Engine.q_class_indices in
          let total = Array.length serial.Scan.experiments / 8 in
          for ci = 0 to total - 1 do
            if not (Array.exists (( = ) ci) excluded) then
              Alcotest.(check bool)
                (Printf.sprintf "class %d exact despite quarantine" ci)
                true
                (Array.sub degraded.Engine.scan.Scan.experiments (8 * ci) 8
                = Array.sub serial.Scan.experiments (8 * ci) 8)
          done
      | qs ->
          Alcotest.fail
            (Printf.sprintf "expected exactly one quarantined shard, got %d"
               (List.length qs)));
      (* The decision is journaled... *)
      let text = read_file path in
      Alcotest.(check bool) "quarantine record journaled" true
        (contains text "sup quarantine shard=1");
      Alcotest.(check bool) "retry record journaled" true
        (contains text "sup retry shard=1 attempt=1");
      (* ...and a quarantine-degraded journal is NOT finished — resume
         can still heal it, so compaction must keep it. *)
      Alcotest.(check bool) "degraded journal not finished" false
        (Runcell.journal_finished path);
      (* Resume without the poison: bit-identical, nothing isolated. *)
      let healed =
        Drive.cell ~backend:Pool.Processes ~jobs:2
          (Spec.of_golden
             ~policy:
               (sup_policy ~journal:path ~resume:true ~max_retries:1
                  ~quarantine:true ())
             golden)
      in
      check_scans_identical "resume heals quarantine" serial
        healed.Engine.scan;
      Alcotest.(check int) "quarantine cleared on resume" 0
        (List.length healed.Engine.quarantined);
      Alcotest.(check bool) "healed journal finished" true
        (Runcell.journal_finished path))

(* The scan-only entry points must never hand back a silently degraded
   scan: any quarantine surfaces as Worker_failed. *)
let test_scan_only_raises_on_quarantine () =
  let golden = Lazy.force hi_golden in
  match
    with_torture "poison:1" (fun () ->
        Drive.scan ~backend:Pool.Processes ~jobs:2
          (Spec.of_golden
             ~policy:(sup_policy ~max_retries:0 ~quarantine:true ())
             golden))
  with
  | _ -> Alcotest.fail "expected Worker_failed"
  | exception Engine.Worker_failed msg ->
      Alcotest.(check bool) "message reports the quarantine" true
        (contains msg "quarantined")

(* The matrix snapshot sums each cell's quarantine counters: shard 1
   poisoned in each of two cells is two quarantined shards, and the
   final snapshot still accounts for every class. *)
let test_quarantine_counters_in_snapshot () =
  let golden = Lazy.force hi_golden in
  let spec variant =
    Spec.of_golden ~variant
      ~policy:(sup_policy ~max_retries:0 ~quarantine:true ())
      golden
  in
  let final = ref None in
  let results =
    with_torture "poison:1" (fun () ->
        Engine.run_matrix_results ~backend:Pool.Processes ~jobs:2
          ~observe:(fun s -> final := Some s)
          [ spec "baseline"; spec "copy" ])
  in
  let qs = List.concat_map (fun r -> r.Engine.quarantined) results in
  Alcotest.(check int) "one quarantined shard per cell" 2 (List.length qs);
  match !final with
  | None -> Alcotest.fail "observe never called"
  | Some s ->
      Alcotest.(check int) "quarantined_shards" (List.length qs)
        s.Progress.quarantined_shards;
      Alcotest.(check int) "quarantined_classes"
        (List.fold_left (fun n q -> n + q.Engine.q_classes) 0 qs)
        s.Progress.quarantined_classes;
      Alcotest.(check int) "classes_done + quarantined_classes"
        s.Progress.classes_total
        (s.Progress.classes_done + s.Progress.quarantined_classes);
      Alcotest.(check bool) "finished" true (Progress.finished s)

(* ------------------------------------------------------------------ *)
(* journal_finished and artifact-store compaction                     *)
(* ------------------------------------------------------------------ *)

let test_journal_finished () =
  let golden = Lazy.force hi_golden in
  with_temp_file (fun path ->
      ignore
        (Drive.scan ~jobs:1
           (Spec.of_golden
              ~policy:(Spec.make_policy ~journal:path ~shard_size:1 ())
              golden));
      Alcotest.(check bool) "complete journal finished" true
        (Runcell.journal_finished path);
      (* Drop the last shard record: unfinished. *)
      let text = read_file path in
      let cut = String.rindex (String.trim text) '\n' in
      let oc = open_out_bin path in
      output_string oc (String.sub text 0 (cut + 1));
      close_out oc;
      Alcotest.(check bool) "truncated journal unfinished" false
        (Runcell.journal_finished path);
      Alcotest.(check bool) "missing journal unfinished" false
        (Runcell.journal_finished (path ^ ".does-not-exist")))

(* Compaction over real journals in a store directory: it deletes the
   finished journals no result entry references — also one whose
   writer never reached close, as after a SIGKILL — and keeps
   everything else. *)
let test_catalog_compact () =
  let golden = Lazy.force hi_golden in
  let dir = Filename.temp_file "fisupstore" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let in_dir name = Filename.concat dir name in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (in_dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      with_temp_file (fun outside ->
          let run policy = ignore (Drive.scan (Spec.of_golden ~policy golden)) in
          (* Finished and closed, unreferenced (two one-class shards). *)
          run (Spec.make_policy ~catalogue:dir ~shard_size:1 ());
          let closed =
            match Sys.readdir dir with
            | [| name |] -> in_dir name
            | names ->
                Alcotest.failf "expected one journal, found %d"
                  (Array.length names)
          in
          (* Finished and referenced: the cache publishes it (weighted
             shards: another campaign fingerprint, another file). *)
          run (Spec.make_policy ~catalogue:dir ~weighted:true ~cache:dir ());
          let referenced =
            match Cache.entries ~dir with
            | [ e ] -> e.Cache.path
            | es -> Alcotest.failf "expected one entry, found %d" (List.length es)
          in
          Alcotest.(check bool) "two journals" true (referenced <> closed);
          (* A writer killed after its last append, and one killed after
             its first: [closed]'s records, the writers left open as a
             killed process leaves them. *)
          let header, records =
            match Journal.replay closed with
            | Some (h, rs, _) -> (h, rs)
            | None -> Alcotest.fail "closed journal unreadable"
          in
          let unclosed ~fingerprint records =
            let path = Cache.journal_path ~dir ~fingerprint in
            let w = Journal.create path ~header in
            List.iter (Journal.append w) records;
            path
          in
          let killed = unclosed ~fingerprint:0xb records in
          let unfinished = unclosed ~fingerprint:0xc [ List.hd records ] in
          (* Finished journals the sweep must not look at. *)
          let copy dst =
            let oc = open_out_bin dst in
            output_string oc (read_file closed);
            close_out oc;
            dst
          in
          let other_name = copy (in_dir "notes.journal") in
          let other_ext = copy (in_dir "fi-0000000d.journal.bak") in
          let outside = copy outside in
          List.iter
            (fun p ->
              Alcotest.(check bool) (p ^ " finished") true
                (Runcell.journal_finished p))
            [ closed; referenced; killed; other_name; other_ext; outside ];
          Alcotest.(check bool) "truncated writer unfinished" false
            (Runcell.journal_finished unfinished);
          let all = [ closed; referenced; killed; unfinished; other_name;
                      other_ext; outside ] in
          (* Dry run: the full report, nothing touched. *)
          let dry = Engine.compact ~dry_run:true ~dir () in
          Alcotest.(check int) "dry examined" 4 dry.Engine.examined;
          Alcotest.(check int) "dry deleted" 2 dry.Engine.deleted;
          Alcotest.(check int) "dry kept" 2 dry.Engine.kept;
          List.iter
            (fun p ->
              Alcotest.(check bool) ("dry run keeps " ^ p) true
                (Sys.file_exists p))
            all;
          (* The sweep. *)
          let c = Engine.compact ~dir () in
          Alcotest.(check int) "examined" 4 c.Engine.examined;
          Alcotest.(check int) "deleted" 2 c.Engine.deleted;
          Alcotest.(check int) "kept" 2 c.Engine.kept;
          List.iter
            (fun (p, present) ->
              Alcotest.(check bool) p present (Sys.file_exists p))
            [ (closed, false); (killed, false); (referenced, true);
              (unfinished, true); (other_name, true); (other_ext, true);
              (outside, true) ];
          Alcotest.(check bool) "no journal index" false
            (Sys.file_exists (in_dir "journals.idx"));
          let again = Engine.compact ~dir () in
          Alcotest.(check int) "a second sweep deletes nothing" 0
            again.Engine.deleted))

(* ------------------------------------------------------------------ *)
(* Domains-pool stall watchdog (report-only)                          *)
(* ------------------------------------------------------------------ *)

let test_pool_stall_watchdog () =
  let stalls = ref [] in
  Pool.run ~deadline:0.08
    ~on_stall:(fun ~stalled_for -> stalls := stalled_for :: !stalls)
    ~jobs:2 ~tasks:3
    (fun i -> if i = 2 then Unix.sleepf 0.35);
  Alcotest.(check bool) "watchdog fired" true (!stalls <> []);
  List.iter
    (fun s ->
      Alcotest.(check bool) "stall duration plausible" true (s > 0.))
    !stalls;
  (* An undisturbed run under the same deadline stays silent. *)
  let quiet = ref 0 in
  Pool.run ~deadline:0.5
    ~on_stall:(fun ~stalled_for:_ -> incr quiet)
    ~jobs:2 ~tasks:8
    (fun _ -> ());
  Alcotest.(check int) "no stall on a healthy pool" 0 !quiet

let suite =
  ( "supervision",
    [
      Alcotest.test_case "supervision payload roundtrip" `Quick
        test_supervision_payload_roundtrip;
      Alcotest.test_case "hang detected, killed, healed" `Quick
        test_hang_detection;
      Alcotest.test_case "stall detected, killed, healed" `Quick
        test_stall_detection;
      Alcotest.test_case "transient crash heals without resume" `Quick
        test_transient_crash_heals;
      Alcotest.test_case "poisoned shard quarantined; resume heals" `Slow
        test_poison_quarantine_and_resume;
      Alcotest.test_case "scan-only API raises on quarantine" `Quick
        test_scan_only_raises_on_quarantine;
      Alcotest.test_case "quarantine counters in the matrix snapshot" `Quick
        test_quarantine_counters_in_snapshot;
      Alcotest.test_case "journal_finished taxonomy" `Quick
        test_journal_finished;
      Alcotest.test_case "catalogue compaction" `Quick test_catalog_compact;
      Alcotest.test_case "domain pool stall watchdog" `Quick
        test_pool_stall_watchdog;
    ] )
