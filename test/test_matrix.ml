(* Tests for the campaign-spec API (lib/engine Spec + the matrix
   scheduler): weighted shard sizing, register-space campaigns through
   the engine (bit-identical to the serial Faultspace.scan for any worker count),
   fingerprint separation of spaces and sizing policies, resume by
   fingerprint-named journal, cross-space resume rejection, and matrix
   runs where only some cells have journals. *)

(* ------------------------------------------------------------------ *)
(* Fixtures and helpers                                               *)
(* ------------------------------------------------------------------ *)

let hi_golden = lazy (Golden.run (Hi.program ()))
let hi_serial =
  lazy Faultspace.(scan (of_golden Bitflip_mem (Lazy.force hi_golden)))
let hi_reg_serial =
  lazy Faultspace.(scan (of_golden Bitflip_reg (Lazy.force hi_golden)))
let hi_reg ?policy () =
  Spec.of_golden ?policy ~model:Faultspace.Bitflip_reg (Lazy.force hi_golden)
let flag1_golden = lazy (Golden.run (Flag1.baseline ()))
let flag1_serial =
  lazy Faultspace.(scan (of_golden Bitflip_mem (Lazy.force flag1_golden)))

let check_scans_identical msg serial parallel =
  Alcotest.(check bool) (msg ^ " (structural)") true (serial = parallel);
  Alcotest.(check string)
    (msg ^ " (serialised)")
    (Csv_io.to_string serial)
    (Csv_io.to_string parallel)

let with_temp_file f =
  let path = Filename.temp_file "fimatrix" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let with_temp_dir f =
  let dir = Filename.temp_file "fimatrix" ".catalogue" in
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

(* ------------------------------------------------------------------ *)
(* Weighted shard sizing                                              *)
(* ------------------------------------------------------------------ *)

let test_weighted_plan_invariants () =
  let classes =
    Defuse.experiment_classes (Lazy.force flag1_golden).Golden.defuse
  in
  let total = Array.length classes in
  List.iter
    (fun shard_size ->
      let plan = Shard.plan ~shard_size ~weighted:true classes in
      Alcotest.(check int) "covers all classes" total plan.Shard.classes_total;
      Alcotest.(check bool) "records the sizing" true
        (plan.Shard.sizing = Shard.By_weight);
      let seen = Array.make total false in
      Array.iter (fun i -> seen.(i) <- true) plan.Shard.order;
      Alcotest.(check bool) "order is a permutation" true
        (Array.for_all Fun.id seen);
      let covered = ref 0 in
      Array.iteri
        (fun i (s : Shard.t) ->
          Alcotest.(check int) "dense ids" i s.Shard.id;
          Alcotest.(check int) "contiguous" !covered s.Shard.lo;
          Alcotest.(check bool) "non-empty" true (Shard.classes_in s > 0);
          covered := s.Shard.hi;
          (* the checkpoint invariant survives weighting *)
          for rank = s.Shard.lo + 1 to s.Shard.hi - 1 do
            let t_end r = classes.(plan.Shard.order.(r)).Defuse.t_end in
            if t_end rank < t_end (rank - 1) then
              Alcotest.failf "shard %d: t_end decreases at rank %d" i rank
          done)
        plan.Shard.shards;
      Alcotest.(check int) "all ranks covered" total !covered)
    [ 1; 7; 100_000 ];
  Alcotest.(check string) "sizing tags" "count,weight"
    (Shard.sizing_tag Shard.By_count ^ "," ^ Shard.sizing_tag Shard.By_weight)

let test_weighted_engine_equals_serial () =
  let golden = Lazy.force hi_golden in
  let policy = Spec.make_policy ~weighted:true () in
  check_scans_identical "hi weighted shards"
    (Lazy.force hi_serial)
    (Drive.scan ~jobs:2 (Spec.of_golden ~policy golden))

(* ------------------------------------------------------------------ *)
(* Fingerprints: space and sizing are part of the identity            *)
(* ------------------------------------------------------------------ *)

let test_fingerprints_distinguish () =
  let golden = Lazy.force hi_golden in
  let mem = Spec.of_golden golden in
  let reg = hi_reg () in
  let weighted =
    Spec.of_golden ~policy:(Spec.make_policy ~weighted:true ()) golden
  in
  let fp_mem = Engine.fingerprint_spec mem in
  Alcotest.(check bool) "mem <> reg" true
    (fp_mem <> Engine.fingerprint_spec reg);
  Alcotest.(check bool) "count <> weight" true
    (fp_mem <> Engine.fingerprint_spec weighted);
  Alcotest.(check bool) "stable" true (fp_mem = Engine.fingerprint_spec mem)

(* ------------------------------------------------------------------ *)
(* Register campaigns through the engine                              *)
(* ------------------------------------------------------------------ *)

let test_register_engine_equals_scan () =
  let serial = Lazy.force hi_reg_serial in
  List.iter
    (fun jobs ->
      check_scans_identical
        (Printf.sprintf "hi registers -j %d" jobs)
        serial
        (Drive.scan ~jobs (hi_reg ())))
    [ 1; 2; 4 ]

(* Register engine == serial Faultspace.scan on random compiled MIR programs with
   random shard geometry and worker counts. *)
let qcheck_register_engine_equals_scan =
  QCheck.Test.make ~name:"random register engine = serial"
    ~count:4
    QCheck.(triple (int_bound 1000) (int_range 1 4) (int_range 1 9))
    (fun (seed, jobs, shard_size) ->
      let open Builder in
      let k = 1 + (seed mod 5) in
      let source =
        prog
          ~name:(Printf.sprintf "rrand%d" seed)
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
      let policy = Spec.make_policy ~shard_size () in
      Faultspace.(scan (of_golden Bitflip_reg golden))
      = Drive.scan ~jobs
          (Spec.of_golden ~policy ~model:Faultspace.Bitflip_reg golden))

let test_register_journal_resume () =
  let serial = Lazy.force hi_reg_serial in
  with_temp_file (fun path ->
      let policy = Spec.make_policy ~shard_size:4 ~journal:path () in
      let full = Drive.scan ~jobs:2 (hi_reg ~policy ()) in
      check_scans_identical "journaled register run" serial full;
      let total_shards =
        match Journal.load path with
        | Some (_, records) -> List.length records
        | None -> Alcotest.fail "journal unreadable"
      in
      Alcotest.(check bool) "has shards" true (total_shards > 2);
      truncate_journal_to path ~records:(total_shards / 2);
      let snap = ref None in
      let resumed =
        Drive.scan ~jobs:2
          ~observe:(fun s -> snap := Some s)
          (hi_reg
             ~policy:
               { policy with
                 Spec.durability =
                   { policy.Spec.durability with Spec.resume = true };
               }
             ())
      in
      check_scans_identical "resumed = uninterrupted" serial resumed;
      match !snap with
      | None -> Alcotest.fail "observe never called"
      | Some s ->
          Alcotest.(check bool) "recovered shards" true
            (s.Progress.resumed_classes > 0);
          Alcotest.(check int) "completed everything" s.Progress.classes_total
            s.Progress.classes_done)

let test_cross_space_resume_rejected () =
  let golden = Lazy.force hi_golden in
  with_temp_file (fun path ->
      (* Memory journal, register resume. *)
      ignore
        (Drive.scan ~jobs:1
           (Spec.of_golden ~policy:(Spec.make_policy ~journal:path ()) golden));
      let reg_resume =
        hi_reg ~policy:(Spec.make_policy ~journal:path ~resume:true ()) ()
      in
      (match Drive.scan ~jobs:1 reg_resume with
      | _ -> Alcotest.fail "register resume accepted a memory journal"
      | exception Engine.Journal_mismatch _ -> ());
      (* Register journal, memory resume. *)
      ignore
        (Drive.scan ~jobs:1
           (hi_reg ~policy:(Spec.make_policy ~journal:path ()) ()));
      let mem_resume =
        Spec.of_golden
          ~policy:(Spec.make_policy ~journal:path ~resume:true ())
          golden
      in
      match Drive.scan ~jobs:1 mem_resume with
      | _ -> Alcotest.fail "memory resume accepted a register journal"
      | exception Engine.Journal_mismatch _ -> ())

(* ------------------------------------------------------------------ *)
(* The matrix scheduler                                               *)
(* ------------------------------------------------------------------ *)

let test_matrix_small_cells () =
  (* Memory and register cells of different programs through one pool,
     for several worker counts; every cell bit-identical to its serial
     conductor, results in spec order. *)
  let specs () =
    [ Spec.of_golden (Lazy.force flag1_golden);
      hi_reg ();
      Spec.of_golden (Lazy.force hi_golden) ]
  in
  List.iter
    (fun jobs ->
      match Drive.scans ~jobs (specs ()) with
      | [ flag1; hi_reg; hi_mem ] ->
          check_scans_identical
            (Printf.sprintf "flag1 cell -j %d" jobs)
            (Lazy.force flag1_serial) flag1;
          check_scans_identical
            (Printf.sprintf "hi register cell -j %d" jobs)
            (Lazy.force hi_reg_serial) hi_reg;
          check_scans_identical
            (Printf.sprintf "hi memory cell -j %d" jobs)
            (Lazy.force hi_serial) hi_mem
      | _ -> Alcotest.fail "wrong cell count")
    [ 1; 2; 4 ]

let test_matrix_aggregate_progress () =
  let specs =
    [ Spec.of_golden (Lazy.force hi_golden);
      hi_reg () ]
  in
  let final = ref None in
  let scans = Drive.scans ~jobs:2 ~observe:(fun s -> final := Some s) specs in
  let cell_classes scan = Array.length scan.Scan.experiments / 8 in
  match !final with
  | None -> Alcotest.fail "observe never called"
  | Some s ->
      Alcotest.(check bool) "finished" true (Progress.finished s);
      Alcotest.(check int) "aggregate classes across the matrix"
        (List.fold_left (fun n scan -> n + cell_classes scan) 0 scans)
        s.Progress.classes_total;
      Alcotest.(check int) "all shards done" s.Progress.shards_total
        s.Progress.shards_done

let test_matrix_partial_journals () =
  (* Only the first cell journals; a torn journal resumes that cell while
     the other cell re-runs from scratch — both end bit-identical. *)
  with_temp_file (fun path ->
      let journaled resume =
        Spec.of_golden
          ~policy:(Spec.make_policy ~shard_size:1 ~journal:path ~resume ())
          (Lazy.force flag1_golden)
      in
      let bare = Spec.of_golden (Lazy.force hi_golden) in
      (match Drive.scans ~jobs:2 [ journaled false; bare ] with
      | [ flag1; hi ] ->
          check_scans_identical "journaled cell" (Lazy.force flag1_serial) flag1;
          check_scans_identical "bare cell" (Lazy.force hi_serial) hi
      | _ -> Alcotest.fail "wrong cell count");
      let total_shards =
        match Journal.load path with
        | Some (_, records) -> List.length records
        | None -> Alcotest.fail "journal unreadable"
      in
      truncate_journal_to path ~records:(total_shards / 2);
      let final = ref None in
      match
        Drive.scans ~jobs:2
          ~observe:(fun s -> final := Some s)
          [ journaled true; bare ]
      with
      | [ flag1; hi ] -> (
          check_scans_identical "resumed cell" (Lazy.force flag1_serial) flag1;
          check_scans_identical "unjournaled cell" (Lazy.force hi_serial) hi;
          match !final with
          | None -> Alcotest.fail "observe never called"
          | Some s ->
              Alcotest.(check bool) "recovered the journaled cell's shards"
                true
                (s.Progress.resumed_classes > 0
                && s.Progress.resumed_classes < s.Progress.classes_total))
      | _ -> Alcotest.fail "wrong cell count")

(* ------------------------------------------------------------------ *)
(* Fingerprint-named journals                                         *)
(* ------------------------------------------------------------------ *)

let test_catalogue_resume_by_fingerprint () =
  with_temp_dir (fun dir ->
      let spec resume =
        Spec.of_golden
          ~policy:(Spec.make_policy ~catalogue:dir ~resume ())
          (Lazy.force hi_golden)
      in
      let first = Drive.scan ~jobs:2 (spec false) in
      check_scans_identical "journaled run" (Lazy.force hi_serial) first;
      let path =
        Cache.journal_path ~dir
          ~fingerprint:(Engine.fingerprint_spec (spec false))
      in
      Alcotest.(check bool) "journal at its fingerprint path" true
        (Sys.file_exists path);
      Alcotest.(check bool) "no journal index written" false
        (Sys.file_exists (Filename.concat dir "journals.idx"));
      (* --resume with no explicit path: found by fingerprint, nothing
         re-conducted. *)
      let snap = ref None in
      let resumed =
        Drive.scan ~jobs:2 ~observe:(fun s -> snap := Some s) (spec true)
      in
      check_scans_identical "resumed by fingerprint" (Lazy.force hi_serial)
        resumed;
      match !snap with
      | None -> Alcotest.fail "observe never called"
      | Some s ->
          Alcotest.(check int) "zero conducted on complete journal"
            s.Progress.classes_total s.Progress.resumed_classes)

let test_resume_needs_journal_or_catalogue () =
  let spec =
    Spec.of_golden
      ~policy:(Spec.make_policy ~resume:true ())
      (Lazy.force hi_golden)
  in
  Alcotest.check_raises "resume without journal or catalogue"
    (Invalid_argument "Engine.run_matrix_results: ~resume requires ~journal")
    (fun () ->
      ignore (Drive.scan spec))

(* ------------------------------------------------------------------ *)
(* The paper matrix                                                   *)
(* ------------------------------------------------------------------ *)

let test_paper_matrix_equals_serial () =
  (* The acceptance bar: every cell of the Figure-2 matrix through one
     shared pool is structurally equal to its serial conductor. *)
  let serial =
    List.concat_map
      (fun (_, baseline, hardened) ->
        [ Faultspace.(scan (analyse Bitflip_mem (baseline ())));
          Faultspace.(scan ~variant:"sum+dmr" (analyse Bitflip_mem (hardened ()))) ])
      Suite.paper_pairs
  in
  let scans = Drive.scans ~jobs:2 (Suite.paper_specs ()) in
  List.iteri
    (fun i (expected, got) ->
      check_scans_identical
        (Printf.sprintf "paper cell %d (%s/%s)" i got.Scan.name
           got.Scan.variant)
        expected got)
    (List.combine serial scans)

let suite =
  ( "matrix",
    [
      Alcotest.test_case "weighted plan invariants" `Quick
        test_weighted_plan_invariants;
      Alcotest.test_case "weighted engine = serial" `Quick
        test_weighted_engine_equals_serial;
      Alcotest.test_case "fingerprints distinguish space and sizing" `Quick
        test_fingerprints_distinguish;
      Alcotest.test_case "register engine = serial scan"
        `Quick test_register_engine_equals_scan;
      QCheck_alcotest.to_alcotest qcheck_register_engine_equals_scan;
      Alcotest.test_case "register journal torn-tail resume" `Quick
        test_register_journal_resume;
      Alcotest.test_case "cross-space resume rejected" `Quick
        test_cross_space_resume_rejected;
      Alcotest.test_case "matrix = serial cells (j 1/2/4)" `Slow
        test_matrix_small_cells;
      Alcotest.test_case "matrix aggregate progress" `Quick
        test_matrix_aggregate_progress;
      Alcotest.test_case "matrix partial journal resume" `Slow
        test_matrix_partial_journals;
      Alcotest.test_case "catalogue resume by fingerprint" `Quick
        test_catalogue_resume_by_fingerprint;
      Alcotest.test_case "resume requires journal or catalogue" `Quick
        test_resume_needs_journal_or_catalogue;
      Alcotest.test_case "paper matrix = serial cells" `Slow
        test_paper_matrix_equals_serial;
    ] )
