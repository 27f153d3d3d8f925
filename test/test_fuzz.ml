(* Tests for the susceptibility fuzzer (lib/fuzz): generator validity
   and termination, cross-variant golden-output equivalence of the
   hardening passes, the Mir_text and corpus round-trips, the mining
   loop itself, shrinker soundness, and bit-identical replay of the
   checked-in regression corpus. *)

let seed_rng seed = Prng.create ~seed

(* Small generated programs are a few hundred cycles; anything beyond
   this limit is a termination bug, not a slow program. *)
let golden_limit = 400_000

(* ------------------------------------------------------------------ *)
(* Generator validity gate                                             *)
(* ------------------------------------------------------------------ *)

let qcheck_gen_valid =
  QCheck.Test.make ~name:"generated programs check, assemble, terminate"
    ~count:30 QCheck.int64 (fun seed ->
      let prog = Gen.program (seed_rng seed) in
      (* [Gen.program] runs Check.check_exn itself; re-establish the
         result explicitly so a future refactor can't lose the gate. *)
      (match Check.check prog with
      | Ok () -> ()
      | Error _ -> QCheck.Test.fail_report "Check rejected a generated program");
      let image = Codegen.compile prog in
      match Golden.run ~limit:golden_limit image with
      | golden ->
          golden.Golden.cycles > 0
          && String.length golden.Golden.output > 0
      | exception Golden.Golden_failed (_, _) ->
          QCheck.Test.fail_report "golden run did not halt (Cycle_limit?)")

let test_gen_deterministic () =
  let p1 = Gen.program (seed_rng 42L) in
  let p2 = Gen.program (seed_rng 42L) in
  Alcotest.(check bool) "same seed, same program" true (p1 = p2);
  let p3 = Gen.program (seed_rng 43L) in
  Alcotest.(check bool) "different seed, different program" false (p1 = p3)

(* ------------------------------------------------------------------ *)
(* Differential hardening semantics                                    *)
(* ------------------------------------------------------------------ *)

let qcheck_harden_golden_output =
  QCheck.Test.make
    ~name:"baseline and hardened variants produce identical golden output"
    ~count:15 QCheck.int64 (fun seed ->
      let prog = Gen.program (seed_rng seed) in
      let out image = (Golden.run ~limit:golden_limit image).Golden.output in
      let base = out (Delta.compile_baseline prog) in
      List.for_all
        (fun v -> out (Delta.compile_variant v prog) = base)
        [ Delta.Sum_dmr; Delta.Tmr; Delta.Dft 16 ])

(* ------------------------------------------------------------------ *)
(* Mir_text round-trip                                                 *)
(* ------------------------------------------------------------------ *)

let qcheck_mir_text_roundtrip =
  QCheck.Test.make ~name:"Mir_text round-trips generated programs"
    ~count:30 QCheck.int64 (fun seed ->
      let prog = Gen.program (seed_rng seed) in
      match Mir_text.of_string (Mir_text.to_string prog) with
      | Ok prog' -> prog' = prog
      | Error msg -> QCheck.Test.fail_report msg)

let test_mir_text_kernels () =
  List.iter
    (fun prog ->
      match Mir_text.of_string (Mir_text.to_string prog) with
      | Ok prog' ->
          Alcotest.(check bool)
            (prog.Mir.p_name ^ " round-trips")
            true (prog' = prog)
      | Error msg -> Alcotest.fail msg)
    [
      Flag1.program ();
      Sync2.program ();
      Mbox1.program ();
      Mutex1.program ();
      Bin_sem2.program ();
    ]

let test_mir_text_version_gate () =
  match Mir_text.of_string "mir-v0\n(name \"x\")\n(stack 1)\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stale version accepted"

(* ------------------------------------------------------------------ *)
(* The predicate                                                       *)
(* ------------------------------------------------------------------ *)

let test_coverage_improves_exact () =
  (* Tallies near the 1/3 ratio boundary, where float arithmetic would
     blur the comparison but cross-multiplied integers stay exact. *)
  let t space failures = { Delta.space; failures; histogram = [] } in
  Alcotest.(check bool) "strictly better ratio improves" true
    (Delta.is_dilution ~baseline:(t 3 1) (t 1_000_000 333_333));
  Alcotest.(check bool) "equal ratio is not an improvement" false
    (Delta.is_dilution ~baseline:(t 3 1) (t 3_000_000 1_000_000));
  Alcotest.(check bool) "failures must strictly rise" false
    (Delta.is_dilution ~baseline:(t 100 10) (t 1_000 10))

(* ------------------------------------------------------------------ *)
(* The mining loop: hunt, shrink soundness, corpus round-trip          *)
(* ------------------------------------------------------------------ *)

let stmt_size prog =
  let rec stmts ss =
    List.fold_left
      (fun acc s ->
        acc
        +
        match s with
        | Mir.If (_, t, e) -> 1 + stmts t + stmts e
        | Mir.While (_, b) -> 1 + stmts b
        | _ -> 1)
      0 ss
  in
  List.fold_left (fun acc f -> acc + stmts f.Mir.f_body) 0 prog.Mir.p_funcs

(* One hunt shared by the next three tests (lazy so the suite builds
   fast when filtered). *)
let run_hunt ?backend ?jobs () =
  Delta.run ?backend ?jobs ~variants:[ Delta.Dft 16 ] ~shrink_budget:40
    ~seed:1007L ~budget:2 ()

let hunt_result = lazy (run_hunt ())

let test_hunt_finds () =
  let hunt = Lazy.force hunt_result in
  Alcotest.(check bool) "at least one finding" true (hunt.Delta.findings <> []);
  (* The same hunt on worker processes: the backend must not change
     what is found. *)
  Alcotest.(check bool) "processes hunt finds the same" true
    ((run_hunt ~backend:Pool.Processes ~jobs:2 ()).Delta.findings
    = hunt.Delta.findings);
  List.iter
    (fun f ->
      Alcotest.(check bool) "predicate holds on stored tallies" true
        (Delta.is_dilution ~baseline:f.Delta.baseline f.Delta.hardened))
    hunt.Delta.findings

let test_shrink_sound () =
  let hunt = Lazy.force hunt_result in
  match hunt.Delta.findings with
  | [] -> Alcotest.fail "hunt found nothing to shrink"
  | f :: _ ->
      (* Delta.run already shrank; shrink again with a fresh budget and
         re-establish every guarantee from scratch. *)
      let shrunk = Delta.shrink ~budget:25 f in
      Alcotest.(check bool) "shrunk program is no larger" true
        (stmt_size shrunk.Delta.program <= stmt_size f.Delta.program);
      Alcotest.(check bool) "predicate preserved" true
        (Delta.is_dilution ~baseline:shrunk.Delta.baseline shrunk.Delta.hardened);
      (* The inversion must replay through a fresh engine run. *)
      (match Delta.verify shrunk with
      | Ok () -> ()
      | Error msg -> Alcotest.fail ("fresh-engine verify failed: " ^ msg))

let test_corpus_roundtrip_and_store () =
  let hunt = Lazy.force hunt_result in
  match hunt.Delta.findings with
  | [] -> Alcotest.fail "hunt found nothing to store"
  | f :: _ -> (
      let entry = Corpus.of_finding f in
      (match Corpus.of_text (Corpus.to_text entry) with
      | Ok entry' ->
          Alcotest.(check bool) "text round-trip" true (entry' = entry)
      | Error msg -> Alcotest.fail msg);
      let dir = Filename.concat (Filename.get_temp_dir_name ()) "fi-fuzz-test-corpus" in
      let path = Corpus.store ~dir entry in
      let path2 = Corpus.store ~dir entry in
      Alcotest.(check string) "store is idempotent" path path2;
      Alcotest.(check bool) "listed" true (List.mem path (Corpus.list ~dir));
      match Corpus.load_file path with
      | Ok loaded ->
          Alcotest.(check bool) "load returns the stored entry" true
            (loaded = entry)
      | Error msg -> Alcotest.fail msg)

(* ------------------------------------------------------------------ *)
(* Checked-in regression corpus                                        *)
(* ------------------------------------------------------------------ *)

let corpus_dir = Filename.concat ".." "corpus"

let test_checked_in_corpus () =
  let paths = Corpus.list ~dir:corpus_dir in
  Alcotest.(check bool) "repo corpus is non-empty" true (paths <> []);
  List.iter
    (fun path ->
      match Corpus.load_file path with
      | Error msg -> Alcotest.fail (path ^ ": " ^ msg)
      | Ok entry -> (
          Alcotest.(check string)
            (path ^ " content address matches")
            (Filename.remove_extension (Filename.basename path))
            (Corpus.key entry);
          match Corpus.verify entry with
          | Ok () -> ()
          | Error msg -> Alcotest.fail (path ^ ": " ^ msg)))
    paths

let suite =
  ( "fuzz",
    [
      QCheck_alcotest.to_alcotest qcheck_gen_valid;
      Alcotest.test_case "gen: deterministic" `Quick test_gen_deterministic;
      QCheck_alcotest.to_alcotest qcheck_harden_golden_output;
      QCheck_alcotest.to_alcotest qcheck_mir_text_roundtrip;
      Alcotest.test_case "mir_text: kernels round-trip" `Quick
        test_mir_text_kernels;
      Alcotest.test_case "mir_text: version gate" `Quick
        test_mir_text_version_gate;
      Alcotest.test_case "predicate: exact integers" `Quick
        test_coverage_improves_exact;
      Alcotest.test_case "hunt: finds dilution cells" `Slow test_hunt_finds;
      Alcotest.test_case "shrink: sound" `Slow test_shrink_sound;
      Alcotest.test_case "corpus: round-trip + store" `Slow
        test_corpus_roundtrip_and_store;
      Alcotest.test_case "corpus: checked-in entries replay" `Slow
        test_checked_in_corpus;
    ] )
