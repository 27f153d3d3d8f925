(* Tests for the snapshot-accelerated injection hot path: the serial
   watermark scheme of Machine.run_checkpointed, and the central
   bit-identity theorem of Injector.plan — the checkpoint stride is a
   pure performance knob, so every stride (including degenerate ones)
   must reproduce the replay provider's outcomes exactly, on both fault
   spaces, on fixed fixtures and qcheck-random programs, and across a
   journal resume whose two halves ran with different strides. *)

let check_scans_identical msg reference scan =
  Alcotest.(check bool) (msg ^ " (structural)") true (reference = scan);
  Alcotest.(check string)
    (msg ^ " (serialised)")
    (Csv_io.to_string reference)
    (Csv_io.to_string scan)

(* A small kernel whose fault space provokes every interesting shape of
   faulty run: a RAM-resident loop bound (bit flips yield watchdog
   timeouts, which the plan simulates to the limit as replay does), serial
   output spread over the run (spliced under golden's tail), and enough
   data flow that some faults converge back onto the golden trace
   mid-run. *)
let looper () =
  let open Builder in
  prog ~name:"looper" ~stack:64
    [
      global "acc" ~init:[ 3 ];
      global "n" ~init:[ 9 ];
      array "buf" 4 ~init:[ 1; 2; 3; 4 ];
    ]
    [
      func "main" ~locals:[ "i" ]
        (for_ "i" ~from:(i 0) ~below:(g "n")
           [
             out (g "acc" &: i 255);
             setg "acc" (g "acc" +: elem "buf" (l "i" %: i 4));
             set_elem "buf" (l "i" %: i 4) (g "acc" ^: i 5);
           ]
        @ [ out (g "acc" &: i 255); ret_unit ]);
    ]

let looper_golden = lazy (Golden.run (Codegen.compile (looper ())))

let looper_replay =
  lazy
    (let golden = Lazy.force looper_golden in
     Faultspace.(
       scan ~provider:(Injector.replay golden) (of_golden Bitflip_mem golden)))

let outcome_count scan o =
  Array.fold_left
    (fun n e -> if e.Scan.outcome = o then n + 1 else n)
    0 scan.Scan.experiments

(* ------------------------------------------------------------------ *)
(* Serial watermarks on the checkpoint ladder                         *)
(* ------------------------------------------------------------------ *)

let test_ladder_watermarks () =
  let stride = 64 in
  let m = Machine.create (Mbox1.baseline ~items:3 ()) in
  let reason, snaps = Machine.run_checkpointed m ~stride ~limit:100_000 in
  Alcotest.(check bool) "golden run halted" true (reason = Machine.Halted);
  let output = Machine.serial_output m in
  Alcotest.(check bool) "has checkpoints" true (Array.length snaps > 2);
  Array.iteri
    (fun idx snap ->
      (* The ladder is captured after every [stride] executed cycles. *)
      Alcotest.(check int)
        (Printf.sprintf "snap %d cycle" idx)
        ((idx + 1) * stride)
        (Machine.Snapshot.cycle snap);
      let r = Machine.Snapshot.restore snap in
      (* The length watermark was resolved against the final output:
         a restored machine reports exactly the prefix emitted by
         capture time, without ever having copied it per checkpoint. *)
      let len = Machine.Snapshot.serial_length snap in
      Alcotest.(check int)
        (Printf.sprintf "snap %d serial watermark" idx)
        len (Machine.serial_length r);
      Alcotest.(check string)
        (Printf.sprintf "snap %d serial prefix" idx)
        (String.sub output 0 len) (Machine.serial_output r);
      Alcotest.(check int)
        (Printf.sprintf "snap %d event watermark" idx)
        (Machine.Snapshot.event_count snap)
        (Machine.event_count r);
      (* Resuming any rung replays the rest of the run exactly. *)
      let tail = Machine.run r ~limit:100_000 in
      Alcotest.(check bool)
        (Printf.sprintf "snap %d resumes to halt" idx)
        true (tail = Machine.Halted);
      Alcotest.(check int)
        (Printf.sprintf "snap %d resumed cycles" idx)
        (Machine.cycle m) (Machine.cycle r);
      Alcotest.(check string)
        (Printf.sprintf "snap %d resumed output" idx)
        output (Machine.serial_output r))
    snaps

(* ------------------------------------------------------------------ *)
(* Stride sweep: plan = replay, bit for bit, on both fault spaces     *)
(* ------------------------------------------------------------------ *)

(* Strides deliberately include the degenerate ends: 1 (a checkpoint
   every cycle), 0 (plan degrades to replay), and one far beyond the
   benchmark runtime (an empty ladder: every session starts at reset
   but still classifies through the convergence shortcuts). *)
let strides golden = [ 0; 1; 7; 64; golden.Golden.cycles + 50 ]

let test_stride_identity_memory () =
  let golden = Lazy.force looper_golden in
  let reference = Lazy.force looper_replay in
  (* The fixture must actually exercise the watchdog path. *)
  Alcotest.(check bool) "fixture has timeouts" true
    (outcome_count reference Outcome.Timeout > 0);
  Alcotest.(check bool) "fixture has failures" true
    (Array.exists
       (fun e -> Outcome.is_failure e.Scan.outcome)
       reference.Scan.experiments);
  List.iter
    (fun stride ->
      check_scans_identical
        (Printf.sprintf "memory stride %d" stride)
        reference
        Faultspace.(
          scan ~provider:(Injector.plan ~stride golden)
            (of_golden Bitflip_mem golden)))
    (strides golden)

let test_stride_identity_registers () =
  let rt = Regspace.analyze (Codegen.compile (looper ())) in
  let rgolden = rt.Regspace.golden in
  let reference =
    Faultspace.(scan ~provider:(Injector.replay rgolden) (of_regspace rt))
  in
  Alcotest.(check bool) "register fixture has timeouts" true
    (outcome_count reference Outcome.Timeout > 0);
  List.iter
    (fun stride ->
      check_scans_identical
        (Printf.sprintf "registers stride %d" stride)
        reference
        Faultspace.(scan ~provider:(Injector.plan ~stride rgolden) (of_regspace rt)))
    (strides rgolden)

(* ------------------------------------------------------------------ *)
(* run_at / session equivalence on ladder sessions                    *)
(* ------------------------------------------------------------------ *)

let test_run_at_matches_planned_session () =
  let golden = Lazy.force looper_golden in
  let w_bits = golden.Golden.program.Program.ram_size * 8 in
  let coords =
    (* Edge cycles (first and last) and a spread in between, on a few
       different bits. *)
    [
      (1, 0);
      (1, w_bits - 1);
      (golden.Golden.cycles / 3, 17 mod w_bits);
      ((2 * golden.Golden.cycles / 3) + 1, 42 mod w_bits);
      (golden.Golden.cycles, w_bits / 2);
    ]
  in
  List.iter
    (fun stride ->
      let session = Injector.session (Injector.plan ~stride golden) in
      List.iter
        (fun (cycle, bit) ->
          let coord = { Coordspace.cycle; bit } in
          Alcotest.(check bool)
            (Printf.sprintf "stride %d @ (%d,%d)" stride cycle bit)
            true
            (Injector.session_run_at session coord
            = Injector.run_at golden coord))
        coords)
    [ 1; Injector.default_stride; golden.Golden.cycles + 50 ]

(* ------------------------------------------------------------------ *)
(* The stride is not part of the campaign identity                    *)
(* ------------------------------------------------------------------ *)

let test_fingerprint_ignores_stride () =
  let golden = Lazy.force looper_golden in
  let spec stride =
    Spec.of_golden
      ~policy:(Spec.make_policy ~checkpoint_stride:stride ())
      golden
  in
  let reference = Engine.fingerprint_spec (spec Injector.default_stride) in
  List.iter
    (fun stride ->
      Alcotest.(check int)
        (Printf.sprintf "fingerprint at stride %d" stride)
        reference
        (Engine.fingerprint_spec (spec stride)))
    [ 0; 1; 7; 64; 100_000 ];
  Alcotest.(check int) "fingerprint with default policy" reference
    (Engine.fingerprint_spec (Spec.of_golden golden))

(* ------------------------------------------------------------------ *)
(* Journal resume across a stride change                              *)
(* ------------------------------------------------------------------ *)

exception Killed

let test_resume_stride_churn () =
  (* A campaign journaled at one stride, killed partway, must resume at
     a different stride (including stride 0 = replay semantics) to the
     bit-identical result: the journal fingerprint cannot see the
     stride, and shards conducted by the two providers agree exactly. *)
  let golden = Lazy.force looper_golden in
  let reference = Lazy.force looper_replay in
  let path = Filename.temp_file "ficheckpoint" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let spec ~resume ~stride =
        Spec.of_golden
          ~policy:
            (Spec.make_policy ~journal:path ~resume ~shard_size:1
               ~checkpoint_stride:stride ())
          golden
      in
      (match
         Drive.scan ~jobs:1
           ~observe:(fun s ->
             if s.Progress.classes_done > s.Progress.classes_total / 3 then
               raise Killed)
           (spec ~resume:false ~stride:8)
       with
      | _ -> Alcotest.fail "expected the campaign to be killed"
      | exception Killed -> ());
      let snap = ref None in
      let resumed =
        Drive.scan ~jobs:1
          ~observe:(fun s -> snap := Some s)
          (spec ~resume:true ~stride:512)
      in
      check_scans_identical "resumed at a different stride" reference resumed;
      (match !snap with
      | None -> Alcotest.fail "observe never called"
      | Some s ->
          Alcotest.(check bool) "recovered shards without re-conducting" true
            (s.Progress.resumed_classes > 0));
      (* Once complete, a replay-semantics resume conducts nothing. *)
      let snap = ref None in
      let again =
        Drive.scan ~jobs:1
          ~observe:(fun s -> snap := Some s)
          (spec ~resume:true ~stride:0)
      in
      check_scans_identical "replay-stride rerun" reference again;
      match !snap with
      | None -> Alcotest.fail "observe never called"
      | Some s ->
          Alcotest.(check int) "zero conducted on complete journal"
            s.Progress.classes_total s.Progress.resumed_classes)

(* ------------------------------------------------------------------ *)
(* qcheck: random programs, random strides                            *)
(* ------------------------------------------------------------------ *)

let random_program seed =
  let open Builder in
  let k = 3 + (seed mod 7) in
  prog ~name:(Printf.sprintf "ckrand%d" seed) ~stack:64
    [
      global "acc" ~init:[ seed mod 11 ];
      global "n" ~init:[ k ];
      array "buf" 3 ~init:[ 1; 2; 3 ];
    ]
    [
      func "main" ~locals:[ "i" ]
        (for_ "i" ~from:(i 0) ~below:(g "n")
           [
             setg "acc" (g "acc" +: elem "buf" (l "i" %: i 3));
             set_elem "buf" (l "i" %: i 3) (g "acc" ^: i seed);
           ]
        @ [ out (g "acc" &: i 255); ret_unit ]);
    ]

(* Every fault model, each on its own analysed cell: the register
   cell's golden run is the register analysis's own. *)
let qcheck_plan_equals_replay =
  QCheck.Test.make ~name:"checkpoint plan equals replay on random programs"
    ~count:8
    QCheck.(pair (int_bound 1000) (int_bound 1000))
    (fun (seed, stride_seed) ->
      let program = Codegen.compile (random_program seed) in
      List.for_all
        (fun model ->
          let cell = Faultspace.analyse model program in
          let golden = cell.Faultspace.golden in
          (* Cover tiny, mid and beyond-runtime strides. *)
          let stride =
            match stride_seed mod 3 with
            | 0 -> 1 + (stride_seed mod 13)
            | 1 -> 1 + (stride_seed mod golden.Golden.cycles)
            | _ -> golden.Golden.cycles + 1 + stride_seed
          in
          Faultspace.scan ~provider:(Injector.plan ~stride golden) cell
          = Faultspace.scan ~provider:(Injector.replay golden) cell)
        [
          Faultspace.Bitflip_mem;
          Faultspace.Bitflip_reg;
          Faultspace.burst 3;
          Faultspace.burst ~row:2 3;
          Faultspace.Skip;
        ])

(* ------------------------------------------------------------------ *)
(* The faulty-state memo                                              *)
(* ------------------------------------------------------------------ *)

(* The memo's key encodes all of RAM and every register, not the live
   subset: a bit flipped in a byte the golden tail never reads again
   still changes it. *)
let test_state_key () =
  let golden = Lazy.force looper_golden in
  let c = golden.Golden.cycles / 2 in
  let m = Machine.create golden.Golden.program in
  Machine.run_until m ~cycle:c;
  let snap = Machine.Snapshot.capture m in
  let key m =
    let buf = Buffer.create 64 in
    Machine.encode_diff buf m snap;
    Buffer.contents buf
  in
  let read_later = Array.make golden.Golden.program.Program.ram_size false in
  Trace.iter_byte_accesses golden.Golden.trace (fun ~byte ~cycle ~kind ->
      if cycle > c && kind = Trace.Read then read_later.(byte) <- true);
  let first p =
    let rec go b = if p read_later.(b) then b else go (b + 1) in
    go 0
  in
  let live = first Fun.id and dead = first not in
  let a = Machine.fork m and b = Machine.fork m in
  let k0 = key a in
  Alcotest.(check string) "two forks, one key" k0 (key b);
  let check_flip what flip =
    flip b;
    Alcotest.(check bool) (what ^ " changes the key") false (key b = k0);
    flip b;
    Alcotest.(check string) (what ^ " flipped back") k0 (key b)
  in
  check_flip "a live RAM bit" (fun m -> Machine.flip_bit m ((8 * live) + 3));
  check_flip "a golden-dead RAM bit" (fun m -> Machine.flip_bit m (8 * dead));
  check_flip "a register bit" (fun m -> Machine.flip_reg_bit m ~reg:5 ~bit:7)

(* Two faults reach one machine state but different histories:
   flipping [a] before [witness] reads it (which records the flip in
   the output or as a detection event) or after.  Either way [a] and
   [d] end up equal, and [d] sets the length of the loop that follows,
   so the two runs share their faulty states at every probed rung.  The
   key must tell them apart: only runs whose output so far is golden's
   are keyed, and the key carries the event count. *)
let test_memo_history () =
  let open Builder in
  List.iter
    (fun (what, witness, marker) ->
      let program =
        Codegen.compile
          (prog ~name:"memohistory" ~stack:64
             [ global "a" ~init:[ 5 ]; global "d"; global "acc" ]
             [
               func "main" ~locals:[ "i" ]
                 (witness
                 @ [ setg "d" (g "a") ]
                 @ for_ "i" ~from:(i 0)
                     ~below:((g "d" &: i 15) +: i 8)
                     [ setg "acc" (g "acc" +: l "i") ]
                 @ [ out (i 33); ret_unit ]);
             ])
      in
      let golden = Golden.run program in
      let provider = Injector.plan ~stride:8 golden in
      let cell = Faultspace.of_golden Faultspace.Bitflip_mem golden in
      let reference = Faultspace.scan ~provider:(Injector.replay golden) cell in
      Alcotest.(check bool) (what ^ ": fixture has " ^ Outcome.to_string marker)
        true
        (outcome_count reference marker > 0);
      check_scans_identical (what ^ ": plan = replay") reference
        (Faultspace.scan ~provider cell);
      Alcotest.(check bool) (what ^ ": memo hits") true
        (Injector.exits (Injector.counts provider) Injector.Memo_hit > 0))
    [
      ("output", [ out (g "a") ], Outcome.Sdc);
      (* One event more when [a] is wrong.  The branches take equal
         cycles (the taken one ends in a jump) and leave the same
         registers behind, so both runs stay in step. *)
      (let c = detect (Int32.to_int Event_codes.corrected)
       and pad = setg "acc" (g "acc") in
       ( "event",
         if_else (g "a" <>: i 5) [ c; c ] [ c; pad; pad ],
         Outcome.Corrected ));
    ]

let flag1_dmr =
  lazy
    (match Suite.find ~benchmark:"flag1" ~variant:Suite.Sum_dmr with
    | Some e -> e
    | None -> Alcotest.fail "flag1/sum+dmr missing from the suite")

let memo_models =
  [ Faultspace.Bitflip_mem; Faultspace.Bitflip_reg; Faultspace.burst 3;
    Faultspace.Skip ]

(* Replay reference per model, shared by the two memo differentials. *)
let flag1_dmr_cells =
  lazy
    (let entry = Lazy.force flag1_dmr in
     let program = entry.Suite.build () in
     let variant = Suite.variant_name entry.Suite.variant in
     List.map
       (fun model ->
         let cell = Faultspace.analyse model program in
         let reference =
           Faultspace.scan ~variant
             ~provider:(Injector.replay cell.Faultspace.golden)
             cell
         in
         (model, cell, reference))
       memo_models)

(* flag1/sum+dmr reaches repeated faulty states under every model, so
   the plan = replay differential covers memo hits for each. *)
let test_memo_plan_equals_replay () =
  List.iter
    (fun (model, cell, reference) ->
      let provider = Injector.plan cell.Faultspace.golden in
      check_scans_identical
        (Faultspace.tag model ^ " plan = replay")
        reference
        (Faultspace.scan ~variant:reference.Scan.variant ~provider cell);
      let counts = Injector.counts provider in
      Alcotest.(check bool)
        (Faultspace.tag model ^ " memo hits")
        true
        (Injector.exits counts Injector.Memo_hit > 0);
      (* Skip's padding slots past the golden run conduct nothing. *)
      Alcotest.(check int)
        (Faultspace.tag model ^ " one exit per conducted experiment")
        (match model with
        | Faultspace.Skip -> cell.Faultspace.golden.Golden.cycles
        | _ -> Faultspace.experiments cell)
        (Array.fold_left ( + ) 0 counts.Injector.experiments))
    (Lazy.force flag1_dmr_cells)

(* Two domains share the one memo table: the engine's scan still equals
   the serial replay. *)
let test_memo_across_domains () =
  match Lazy.force flag1_dmr_cells with
  | (model, _, reference) :: _ ->
      check_scans_identical
        (Faultspace.tag model ^ " domains -j 2 = serial")
        reference
        (Drive.scan ~backend:Pool.Domains ~jobs:2
           (Suite.spec_of ~model (Lazy.force flag1_dmr)))
  | [] -> assert false

let suite =
  ( "checkpoint",
    [
      Alcotest.test_case "ladder serial watermarks" `Quick
        test_ladder_watermarks;
      Alcotest.test_case "stride sweep bit-identity (memory)" `Quick
        test_stride_identity_memory;
      Alcotest.test_case "stride sweep bit-identity (registers)" `Quick
        test_stride_identity_registers;
      Alcotest.test_case "run_at matches planned sessions" `Quick
        test_run_at_matches_planned_session;
      Alcotest.test_case "fingerprint ignores stride" `Quick
        test_fingerprint_ignores_stride;
      Alcotest.test_case "journal resume across stride change" `Quick
        test_resume_stride_churn;
      QCheck_alcotest.to_alcotest qcheck_plan_equals_replay;
      Alcotest.test_case "memo state key" `Quick test_state_key;
      Alcotest.test_case "memo tells histories apart" `Quick
        test_memo_history;
      Alcotest.test_case "memo: plan = replay with hits" `Quick
        test_memo_plan_equals_replay;
      Alcotest.test_case "memo shared across domains" `Quick
        test_memo_across_domains;
    ] )
