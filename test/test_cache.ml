(* Tests for the content-addressed result store (lib/cache) and its
   engine integration: cell keying, the sidecar index lock, publish /
   lookup semantics, bit-identical cache hits in both fault spaces,
   zero shard executions on a warm cell, quarantine never published,
   policy-distinct cells never colliding, and compaction protecting
   cache-referenced journals. *)

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

let with_temp_dir f =
  let dir = Filename.temp_file "ficache" ".store" in
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
    (fun () -> f dir)

let with_torture value f =
  Unix.putenv Worker.torture_var value;
  Fun.protect ~finally:(fun () -> Unix.putenv Worker.torture_var "") f

(* Re-exec guard for the cross-process lock test below.  [Unix.fork]
   is unavailable once this binary has spawned domains, so the
   contending process is a fresh copy of the test executable: it
   announces readiness, blocks on the lock named in the environment,
   then leaves a witness file next to it. *)
let lock_helper_var = "FI_TEST_LOCK_HELPER"

let helper_guard () =
  match Sys.getenv_opt lock_helper_var with
  | None | Some "" -> ()
  | Some target ->
      let mark name =
        let path = Filename.concat (Filename.dirname target) name in
        let oc = open_out path in
        output_string oc "locked";
        close_out oc
      in
      mark "ready";
      Lockfile.with_lock target (fun () -> mark "witness");
      exit 0

let spawn_helper var value =
  let env =
    Array.append (Unix.environment ()) [| Printf.sprintf "%s=%s" var value |]
  in
  Unix.create_process_env Sys.executable_name [| Sys.executable_name |] env
    Unix.stdin Unix.stdout Unix.stderr

let cache_policy ?journal ?shard_size ?(weighted = false) dir =
  Spec.make_policy ?journal ?shard_size ~weighted ~catalogue:dir ~cache:dir ()

(* ------------------------------------------------------------------ *)
(* Keying                                                             *)
(* ------------------------------------------------------------------ *)

let test_cell_key_distinct () =
  let base =
    Cache.cell_key ~image:"img" ~space:"memory" ~limit:None ~shard_size:None
      ~weighted:false
  in
  let same =
    Cache.cell_key ~image:"img" ~space:"memory" ~limit:None ~shard_size:None
      ~weighted:false
  in
  Alcotest.(check string) "deterministic" base same;
  Alcotest.(check int) "hex key length" Cache.key_length (String.length base);
  let variants =
    [
      Cache.cell_key ~image:"img2" ~space:"memory" ~limit:None
        ~shard_size:None ~weighted:false;
      Cache.cell_key ~image:"img" ~space:"registers" ~limit:None
        ~shard_size:None ~weighted:false;
      Cache.cell_key ~image:"img" ~space:"memory" ~limit:(Some 4096)
        ~shard_size:None ~weighted:false;
      Cache.cell_key ~image:"img" ~space:"memory" ~limit:None
        ~shard_size:(Some 8) ~weighted:false;
      Cache.cell_key ~image:"img" ~space:"memory" ~limit:None ~shard_size:None
        ~weighted:true;
    ]
  in
  List.iteri
    (fun i k ->
      Alcotest.(check bool)
        (Printf.sprintf "variant %d differs from base" i)
        true (k <> base))
    variants;
  let uniq = List.sort_uniq compare (base :: variants) in
  Alcotest.(check int) "all six keys distinct" 6 (List.length uniq)

(* ------------------------------------------------------------------ *)
(* Sidecar index lock                                                 *)
(* ------------------------------------------------------------------ *)

let test_lockfile_roundtrip () =
  with_temp_dir (fun dir ->
      let target = Filename.concat dir "results.idx" in
      let v = Lockfile.with_lock target (fun () -> 41 + 1) in
      Alcotest.(check int) "body result returned" 42 v;
      Alcotest.(check bool) "sidecar created" true
        (Sys.file_exists (Lockfile.lock_path target));
      (* Released on return: a second acquisition doesn't deadlock. *)
      Alcotest.(check int) "re-acquirable" 7
        (Lockfile.with_lock target (fun () -> 7));
      (* Released on exception too. *)
      (match Lockfile.with_lock target (fun () -> failwith "boom") with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "exception swallowed");
      Alcotest.(check int) "re-acquirable after raise" 9
        (Lockfile.with_lock target (fun () -> 9)))

let test_lockfile_excludes_across_processes () =
  with_temp_dir (fun dir ->
      let target = Filename.concat dir "results.idx" in
      let ready = Filename.concat dir "ready" in
      let witness = Filename.concat dir "witness" in
      let await path =
        let deadline = Unix.gettimeofday () +. 10. in
        while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline
        do
          Unix.sleepf 0.02
        done;
        Sys.file_exists path
      in
      let pid = ref 0 in
      Lockfile.with_lock target (fun () ->
          (* A fresh process contending for the same lock must block
             until we release: wait for it to start, give it a moment
             to reach the lock, then verify it hasn't run. *)
          pid := spawn_helper lock_helper_var target;
          Alcotest.(check bool) "contender started" true (await ready);
          Unix.sleepf 0.3;
          Alcotest.(check bool) "child blocked while we hold the lock"
            false (Sys.file_exists witness));
      (* Release by returning: the contender acquires and runs. *)
      Alcotest.(check bool) "child ran after release" true (await witness);
      ignore (Unix.waitpid [] !pid))

(* ------------------------------------------------------------------ *)
(* Index semantics                                                    *)
(* ------------------------------------------------------------------ *)

let test_publish_lookup_roundtrip () =
  with_temp_dir (fun dir ->
      let key =
        Cache.cell_key ~image:"x" ~space:"memory" ~limit:None ~shard_size:None
          ~weighted:false
      in
      Alcotest.(check bool) "empty store misses" true
        (Cache.lookup ~dir key = None);
      let path = Filename.concat dir "with space.journal" in
      Cache.publish ~dir ~key ~fingerprint:0xdeadbeef ~path;
      (match Cache.lookup ~dir key with
      | None -> Alcotest.fail "published entry not found"
      | Some e ->
          Alcotest.(check string) "path (with spaces) survives" path
            e.Cache.path;
          Alcotest.(check bool) "fingerprint survives" true
            (e.Cache.fingerprint = 0xdeadbeef));
      (* Re-publishing the same key is idempotent-ish: last wins. *)
      Cache.publish ~dir ~key ~fingerprint:0x1234 ~path:"/elsewhere/a.j";
      (match Cache.lookup ~dir key with
      | Some e ->
          Alcotest.(check bool) "last publication wins" true
            (e.Cache.fingerprint = 0x1234)
      | None -> Alcotest.fail "entry vanished");
      (* Corrupt lines are tolerated, not fatal. *)
      let oc =
        open_out_gen [ Open_append ] 0o644 (Cache.index_path ~dir)
      in
      output_string oc "not a valid line\nzz short\n";
      close_out oc;
      Alcotest.(check bool) "lookup survives garbage lines" true
        (Cache.lookup ~dir key <> None);
      Alcotest.(check bool) "referenced tracks published paths" true
        (Cache.referenced ~dir "/elsewhere/a.j");
      Alcotest.(check bool) "unpublished path not referenced" false
        (Cache.referenced ~dir "/elsewhere/b.j"))

(* ------------------------------------------------------------------ *)
(* Engine integration: warm hits                                      *)
(* ------------------------------------------------------------------ *)

let run_cached ?backend ?jobs ~dir golden =
  Drive.cell ?backend ?jobs
    (Spec.of_golden ~policy:(cache_policy dir) golden)

let test_memory_hit_bit_identical () =
  with_temp_dir (fun dir ->
      let golden = Lazy.force hi_golden in
      let serial = Lazy.force hi_serial in
      let cold = run_cached ~dir golden in
      Alcotest.(check bool) "cold run is not a hit" false cold.Engine.cached;
      check_scans_identical "cold = serial" serial cold.Engine.scan;
      let warm = run_cached ~dir golden in
      Alcotest.(check bool) "warm run is a hit" true warm.Engine.cached;
      check_scans_identical "warm = serial" serial warm.Engine.scan;
      check_scans_identical "warm = cold" cold.Engine.scan warm.Engine.scan)

let test_register_hit_bit_identical () =
  with_temp_dir (fun dir ->
      let spec builddir =
        Spec.build ~model:Faultspace.Bitflip_reg ~benchmark:"hi"
          ~policy:(cache_policy builddir) (fun () -> Hi.program ())
      in
      let serial = Faultspace.(scan (analyse Bitflip_reg (Hi.program ()))) in
      let cold = Drive.cell (spec dir) in
      Alcotest.(check bool) "cold register run not a hit" false
        cold.Engine.cached;
      check_scans_identical "cold registers = serial" serial cold.Engine.scan;
      let warm = Drive.cell (spec dir) in
      Alcotest.(check bool) "warm register run is a hit" true
        warm.Engine.cached;
      check_scans_identical "warm registers = cold" cold.Engine.scan
        warm.Engine.scan)

(* The acceptance bar: a warm matrix re-runs with ZERO shard
   executions.  Proof by sabotage — under [exit:0] torture every
   process-backend worker dies the instant it starts, so the warm run
   can only complete cleanly (no retries, no quarantine) if no worker
   was ever spawned. *)
let test_warm_run_executes_no_shards () =
  with_temp_dir (fun dir ->
      let golden = Lazy.force hi_golden in
      let cold = run_cached ~backend:Pool.Processes ~jobs:2 ~dir golden in
      Alcotest.(check bool) "cold completes" false cold.Engine.cached;
      let events = ref [] in
      let warm =
        with_torture "exit:0" (fun () ->
            Drive.cell ~backend:Pool.Processes ~jobs:2
              ~on_event:(fun msg -> events := msg :: !events)
              (Spec.of_golden ~policy:(cache_policy dir) golden))
      in
      Alcotest.(check bool) "warm run is a hit" true warm.Engine.cached;
      Alcotest.(check int) "no supervision events — nothing ran" 0
        (List.length !events);
      Alcotest.(check int) "nothing quarantined" 0
        (List.length warm.Engine.quarantined);
      check_scans_identical "sabotaged warm run = cold" cold.Engine.scan
        warm.Engine.scan)

(* ------------------------------------------------------------------ *)
(* Quarantine and policy separation                                   *)
(* ------------------------------------------------------------------ *)

let test_quarantined_never_published () =
  with_temp_dir (fun dir ->
      let golden = Lazy.force hi_golden in
      let policy =
        {
          (cache_policy ~shard_size:1 dir) with
          Spec.supervision =
            { Spec.default_supervision with Spec.quarantine = true };
        }
      in
      let degraded =
        with_torture "exit:0" (fun () ->
            Drive.cell ~backend:Pool.Processes ~jobs:2
              (Spec.of_golden ~policy golden))
      in
      Alcotest.(check bool) "campaign was degraded" true
        (degraded.Engine.quarantined <> []);
      Alcotest.(check int) "nothing published to the store" 0
        (List.length (Cache.entries ~dir));
      (* And a follow-up run is NOT served from cache. *)
      let followup = run_cached ~dir golden in
      Alcotest.(check bool) "follow-up re-runs instead of hitting" false
        followup.Engine.cached)

let test_policy_keys_do_not_collide () =
  with_temp_dir (fun dir ->
      let golden = Lazy.force hi_golden in
      let run policy =
        Drive.cell (Spec.of_golden ~policy golden)
      in
      let cold = run (cache_policy dir) in
      Alcotest.(check bool) "cold miss" false cold.Engine.cached;
      (* Same program, different plan geometry: per-class shards and
         weighted sizing each key differently — no collision with the
         default-geometry publication. *)
      let sharded = run (cache_policy ~shard_size:1 dir) in
      Alcotest.(check bool) "shard_size=1 cell misses" false
        sharded.Engine.cached;
      let weighted = run (cache_policy ~weighted:true dir) in
      Alcotest.(check bool) "weighted cell misses" false
        weighted.Engine.cached;
      (* Each geometry is now warm under its own key. *)
      Alcotest.(check bool) "default geometry hits" true
        (run (cache_policy dir)).Engine.cached;
      Alcotest.(check bool) "shard_size=1 hits its own entry" true
        (run (cache_policy ~shard_size:1 dir)).Engine.cached;
      Alcotest.(check bool) "weighted hits its own entry" true
        (run (cache_policy ~weighted:true dir)).Engine.cached;
      (* Same label, different image: "hi/baseline" built from the
         program and then from its DFT variant.  The key digests the
         image, so the second build misses instead of being served the
         first one's results. *)
      let labelled build =
        Drive.cell
          (Spec.memory ~policy:(cache_policy dir) ~benchmark:"hi"
             ~variant:"baseline" build)
      in
      let plain = labelled (fun () -> Hi.program ()) in
      let dft = labelled (fun () -> Hi.dft ()) in
      Alcotest.(check bool) "changed image under the same label misses" false
        dft.Engine.cached;
      let plain' = labelled (fun () -> Hi.program ()) in
      let dft' = labelled (fun () -> Hi.dft ()) in
      Alcotest.(check bool) "original image hits its own entry" true
        plain'.Engine.cached;
      Alcotest.(check bool) "changed image hits its own entry" true
        dft'.Engine.cached;
      check_scans_identical "original image's hit" plain.Engine.scan
        plain'.Engine.scan;
      check_scans_identical "changed image's hit" dft.Engine.scan
        dft'.Engine.scan)

(* ------------------------------------------------------------------ *)
(* Compaction protection                                              *)
(* ------------------------------------------------------------------ *)

let test_compact_protects_cache_referenced_journals () =
  with_temp_dir (fun dir ->
      let golden = Lazy.force hi_golden in
      let cold = run_cached ~dir golden in
      Alcotest.(check bool) "cold populated the store" false
        cold.Engine.cached;
      let journal =
        match Cache.entries ~dir with
        | [ e ] -> e.Cache.path
        | es ->
            Alcotest.failf "expected one store entry, found %d"
              (List.length es)
      in
      Alcotest.(check bool) "journal finished (compactable on merit)" true
        (Runcell.journal_finished journal);
      (* A finished copy no entry references is what compaction deletes... *)
      let copy = Cache.journal_path ~dir ~fingerprint:0xc0b1 in
      let oc = open_out_bin copy in
      let ic = open_in_bin journal in
      output_string oc (really_input_string ic (in_channel_length ic));
      close_in ic;
      close_out oc;
      let dry = Engine.compact ~dry_run:true ~dir () in
      Alcotest.(check int) "dry run would delete only the copy" 1
        dry.Engine.deleted;
      (* ...but the referenced journal survives, however the directory
         is spelled. *)
      let c = Engine.compact ~dir:(Filename.concat dir ".") () in
      Alcotest.(check int) "compaction deletes only the copy" 1
        c.Engine.deleted;
      Alcotest.(check int) "and keeps the referenced journal" 1 c.Engine.kept;
      Alcotest.(check bool) "copy deleted" false (Sys.file_exists copy);
      Alcotest.(check bool) "journal file survives" true
        (Sys.file_exists journal);
      (* The store still serves it — the whole point of protection. *)
      let warm = run_cached ~dir golden in
      Alcotest.(check bool) "post-compaction warm run still hits" true
        warm.Engine.cached)

(* A cached journal that rots on disk (truncation, corruption) must
   degrade to a miss — never to a wrong scan. *)
let test_corrupt_cached_journal_degrades_to_miss () =
  with_temp_dir (fun dir ->
      let golden = Lazy.force hi_golden in
      let serial = Lazy.force hi_serial in
      let cold = run_cached ~dir golden in
      check_scans_identical "cold = serial" serial cold.Engine.scan;
      (match Cache.entries ~dir with
      | [ e ] ->
          let oc = open_out_bin e.Cache.path in
          output_string oc "fi-journal torn garbage\n";
          close_out oc
      | _ -> Alcotest.fail "expected one store entry");
      let warm = run_cached ~dir golden in
      Alcotest.(check bool) "rotten journal is a miss, not a hit" false
        warm.Engine.cached;
      check_scans_identical "re-run is still exact" serial warm.Engine.scan)

(* A stored journal whose record holds a character outside the outcome
   alphabet (right length, valid CRC) is a miss: the cell is conducted
   afresh, and its new journal serves the next run. *)
let test_foreign_outcome_character_is_a_miss () =
  with_temp_dir (fun dir ->
      let golden = Lazy.force hi_golden in
      let serial = Lazy.force hi_serial in
      ignore (run_cached ~dir golden);
      (match Cache.entries ~dir with
      | [ e ] -> Journal_edit.set_last_outcome e.Cache.path 'x'
      | _ -> Alcotest.fail "expected one store entry");
      let warm = run_cached ~dir golden in
      Alcotest.(check bool) "foreign character is a miss" false
        warm.Engine.cached;
      check_scans_identical "conducted afresh" serial warm.Engine.scan;
      let again = run_cached ~dir golden in
      Alcotest.(check bool) "re-conducted journal is a hit" true
        again.Engine.cached;
      check_scans_identical "hit after the miss" serial again.Engine.scan)

(* What a hit allocates, as a deterministic counter: minor-heap words of
   one hit of bin_sem2/baseline, from analysis through the finished
   scan.  Direct major allocations (arrays past the minor-heap size
   limit) are not minor words, so they do not show here; the budget
   catches the per-access, per-class and per-slot garbage of the
   analysis and replay passes.  Measured on OCaml 5.1.1: 892,407 words
   before the flat trace, two-pass def/use, packed ranking and streamed
   fingerprint, 592,188 after.  [Gc.minor_words] counts the calling
   domain only, so the count is exact only if the hit starts no domain:
   domain ids are handed out in increasing order, so a domain started
   just after the hit must take the next id after one started just
   before it. *)
let hit_minor_words_budget = 650_000

let test_hit_allocation_budget () =
  with_temp_dir (fun dir ->
      let spec =
        match Suite.find ~benchmark:"bin_sem2" ~variant:Suite.Baseline with
        | Some e -> Suite.spec_of ~policy:(Spec.make_policy ~catalogue:dir ~cache:dir ()) e
        | None -> Alcotest.fail "no bin_sem2/baseline in the suite"
      in
      let cold = Engine.run_matrix_results [ spec ] in
      Alcotest.(check (list bool)) "cold run conducts" [ false ]
        (List.map (fun r -> r.Engine.cached) cold);
      let next_domain () = (Domain.join (Domain.spawn Domain.self) :> int) in
      let before = next_domain () in
      let replays = Golden.register_replays () in
      let w0 = Gc.minor_words () in
      let warm = Engine.run_matrix_results [ spec ] in
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check int) "the hit records no register trace" replays
        (Golden.register_replays ());
      Alcotest.(check int) "the hit starts no domain" (before + 1)
        (next_domain ());
      Alcotest.(check (list bool)) "second run is a hit" [ true ]
        (List.map (fun r -> r.Engine.cached) warm);
      if words > float_of_int hit_minor_words_budget then
        Alcotest.failf "a hit allocated %.0f minor words (budget %d)" words
          hit_minor_words_budget)

(* A cache alone, with no journal and no journal directory, still
   publishes: the cell journals into the store, and a repeat call is a
   hit that starts no shard. *)
let test_cache_alone_publishes () =
  with_temp_dir (fun dir ->
      let spec =
        Spec.memory ~policy:(Spec.make_policy ~cache:dir ()) ~benchmark:"hi"
          Hi.program
      in
      let cold = Drive.cell spec in
      Alcotest.(check bool) "cold run conducts" false cold.Engine.cached;
      (* Any worker the hit started would exit at once and be
         reported. *)
      let events = ref [] in
      let warm =
        with_torture "exit:0" (fun () ->
            Drive.cell ~backend:Pool.Processes ~jobs:2
              ~on_event:(fun msg -> events := msg :: !events)
              spec)
      in
      Alcotest.(check bool) "second run is a hit" true warm.Engine.cached;
      Alcotest.(check int) "no supervision events — nothing ran" 0
        (List.length !events);
      Alcotest.(check bool) "journal in the store" true
        (Array.exists
           (fun f -> Filename.check_suffix f ".journal")
           (Sys.readdir dir));
      check_scans_identical "hit = cold" (Engine.scan_exn cold)
        (Engine.scan_exn warm))

let suite =
  ( "cache",
    [
      Alcotest.test_case "cell keys: deterministic and collision-free" `Quick
        test_cell_key_distinct;
      Alcotest.test_case "lockfile: acquire, release, re-acquire" `Quick
        test_lockfile_roundtrip;
      Alcotest.test_case "lockfile: excludes a contending process" `Quick
        test_lockfile_excludes_across_processes;
      Alcotest.test_case "index: publish/lookup/garbage/referenced" `Quick
        test_publish_lookup_roundtrip;
      Alcotest.test_case "memory-space hit is bit-identical" `Quick
        test_memory_hit_bit_identical;
      Alcotest.test_case "register-space hit is bit-identical" `Quick
        test_register_hit_bit_identical;
      Alcotest.test_case "warm run executes zero shards" `Quick
        test_warm_run_executes_no_shards;
      Alcotest.test_case "quarantined campaigns are never published" `Quick
        test_quarantined_never_published;
      Alcotest.test_case "policy-distinct cells never collide" `Quick
        test_policy_keys_do_not_collide;
      Alcotest.test_case "compaction protects cache-referenced journals"
        `Quick test_compact_protects_cache_referenced_journals;
      Alcotest.test_case "corrupt cached journal degrades to a miss" `Quick
        test_corrupt_cached_journal_degrades_to_miss;
      Alcotest.test_case "foreign outcome character is a miss" `Quick
        test_foreign_outcome_character_is_a_miss;
      Alcotest.test_case "a hit stays within its allocation budget" `Quick
        test_hit_allocation_budget;
      Alcotest.test_case "a cache without a journal directory publishes"
        `Quick test_cache_alone_publishes;
    ] )
