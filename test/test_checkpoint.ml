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
     Faultspace.(scan (with_stride 0 (of_golden Bitflip_mem golden))))

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
        Faultspace.(scan (with_stride stride (of_golden Bitflip_mem golden))))
    (strides golden)

let test_stride_identity_registers () =
  let rgolden = Golden.run (Codegen.compile (looper ())) in
  let reference =
    Faultspace.(scan (with_stride 0 (of_golden Bitflip_reg rgolden)))
  in
  Alcotest.(check bool) "register fixture has timeouts" true
    (outcome_count reference Outcome.Timeout > 0);
  List.iter
    (fun stride ->
      check_scans_identical
        (Printf.sprintf "registers stride %d" stride)
        reference
        Faultspace.(scan (with_stride stride (of_golden Bitflip_reg rgolden))))
    (strides rgolden)

(* ------------------------------------------------------------------ *)
(* Ladder sessions equal one-experiment replay sessions               *)
(* ------------------------------------------------------------------ *)

let test_run_at_matches_planned_session () =
  let golden = Lazy.force looper_golden in
  let cell = Faultspace.of_golden Faultspace.Bitflip_mem golden in
  let alone coord =
    cell.Faultspace.inject (Injector.session (Injector.replay golden)) coord
  in
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
          let coord = { Faultspace.cycle; bit } in
          Alcotest.(check bool)
            (Printf.sprintf "stride %d @ (%d,%d)" stride cycle bit)
            true
            (cell.Faultspace.inject session coord = alone coord))
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
          Faultspace.(scan (with_stride stride cell))
          = Faultspace.(scan (with_stride 0 cell)))
        [
          Faultspace.Bitflip_mem;
          Faultspace.Bitflip_reg;
          Faultspace.burst 3;
          Faultspace.burst ~row:2 3;
          Faultspace.Skip;
        ])

(* ------------------------------------------------------------------ *)
(* Ladders and live-in masks against the list algorithm               *)
(* ------------------------------------------------------------------ *)

(* The first rung of [rungs] whose RAM or register mask from the sweep
   differs from the list oracle's, described; [None] when all agree. *)
let live_in_disagreement trace ~registers rungs acc =
  let ram, regs = Injector.live_in trace ~registers rungs in
  let ram', regs' = Oracle.live_in acc ~rungs in
  let bad = ref None in
  Array.iteri
    (fun i c ->
      if !bad = None then
        if not (Bytes.equal ram.(i) ram'.(i)) then
          bad := Some (Printf.sprintf "RAM mask at rung cycle %d" c)
        else if regs.(i) <> regs'.(i) then
          bad :=
            Some
              (Printf.sprintf "register mask at rung cycle %d: %x, list %x" c
                 regs.(i) regs'.(i)))
    rungs;
  !bad

(* The golden run's accesses, recorded again by the oracle's own traced
   replay; it fails the test if its RAM accesses are not the golden
   trace's. *)
let oracle_accesses (golden : Golden.t) =
  let program = golden.Golden.program in
  let ram, regs = Oracle.traced_run golden in
  let t = golden.Golden.trace in
  if
    List.length ram <> Trace.length t
    || not
         (List.for_all2
            (fun (c, a, w, r) i ->
              (c, a, w, r)
              = (Trace.cycle t i, Trace.addr t i, Trace.width t i,
                 Trace.kind t i = Trace.Read))
            ram
            (List.init (Trace.length t) Fun.id))
  then Alcotest.failf "%s: golden RAM trace differs" program.Program.name;
  Oracle.accesses ~ram_size:program.Program.ram_size ram regs

(* [plan ~stride]'s ladder cycles and live-in masks against a ladder
   the reference interpreter captured and the list algorithm's masks;
   [None] when they agree. *)
let ladder_disagreement (golden : Golden.t) acc ~stride =
  let rungs = Injector.ladder_cycles (Injector.plan ~stride golden) in
  if rungs <> Oracle.rungs golden ~stride then Some "ladder cycles"
  else
    live_in_disagreement golden.Golden.trace
      ~registers:(Golden.registers golden) rungs acc

(* Every suite program at strides 1, 7, 128 and 1000.  A stride-1
   ladder of a long program would hold a snapshot and two masks per
   cycle, so past 6,000 cycles stride 1 compares only the masks, at
   each of the first and last 1,024 cycles. *)
let test_suite_ladders_match_lists () =
  List.iter
    (fun (e : Suite.entry) ->
      let golden = Golden.run (e.Suite.build ()) in
      let acc = oracle_accesses golden in
      let cycles = golden.Golden.cycles in
      let name = e.Suite.benchmark ^ "/" ^ Suite.variant_name e.Suite.variant in
      let short = cycles <= 6000 in
      List.iter
        (fun stride ->
          Option.iter
            (Alcotest.failf "%s stride %d: %s differ" name stride)
            (ladder_disagreement golden acc ~stride))
        (if short then [ 1; 7; 128; 1000 ] else [ 7; 128; 1000 ]);
      if not short then
        List.iter
          (fun from ->
            Option.iter
              (Alcotest.failf "%s stride 1: %s" name)
              (live_in_disagreement golden.Golden.trace
                 ~registers:(Golden.registers golden)
                 (Array.init 1024 (fun k -> from + k))
                 acc))
          [ 1; cycles - 1024 ])
    Suite.all

let qcheck_gen_ladders_match_lists =
  QCheck.Test.make ~name:"generated-program ladders equal the list algorithm"
    ~count:40
    QCheck.(pair int64 (int_bound 300))
    (fun (seed, stride) ->
      let prog = Gen.program (Prng.create ~seed) in
      match Golden.run ~limit:20_000 (Delta.compile_baseline prog) with
      | exception Golden.Golden_failed _ -> QCheck.assume_fail ()
      | golden -> (
          match ladder_disagreement golden (oracle_accesses golden) ~stride:(1 + stride) with
          | None -> true
          | Some what -> QCheck.Test.fail_reportf "%s differ" what))

(* Random traces: byte and word accesses (the last RAM word among
   them), several per cycle in any order, one byte read and written in
   the same cycle; registers read and written in the same cycle; rungs
   past every access, so some locations are never touched after a
   rung. *)
let gen_live_in_case =
  let open QCheck.Gen in
  let* words = int_range 1 4 in
  let ram = 4 * words in
  let* cycles = int_range 1 40 in
  let* n = int_range 0 40 in
  let access =
    let* cycle = int_range 1 cycles in
    let* word = bool in
    let* addr =
      if word then oneof [ return (ram - 4); int_range 0 (ram - 4) ]
      else int_range 0 (ram - 1)
    in
    let* read = bool in
    return (cycle, addr, (if word then 4 else 1), read)
  in
  let* accesses = list_repeat n access in
  let accesses =
    List.stable_sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) accesses
  in
  let* registers =
    array_repeat cycles (map2 (fun r w -> (r lsl 1) lor ((w lsl 1) lsl 16)) (int_bound 0x7FFF) (int_bound 0x7FFF))
  in
  let* rungs = list_repeat 6 (int_range 0 (cycles + 2)) in
  return (ram, cycles, accesses, registers, List.sort_uniq compare rungs)

let qcheck_live_in_matches_lists =
  QCheck.Test.make ~name:"live-in sweep equals the list algorithm"
    ~count:500
    (QCheck.make gen_live_in_case)
    (fun (ram, cycles, accesses, registers, rungs) ->
      let t = Trace.create ~ram_size:ram in
      List.iter
        (fun (cycle, addr, width, read) ->
          Trace.add t ~cycle ~addr ~width
            ~kind:(if read then Trace.Read else Trace.Write))
        accesses;
      Trace.seal t ~total_cycles:cycles;
      let packed = Bytes.create (4 * cycles) in
      Array.iteri
        (fun i m ->
          Bytes.set_uint16_le packed (4 * i) (m land 0xFFFF);
          Bytes.set_uint16_le packed ((4 * i) + 2) (m lsr 16))
        registers;
      let reg_acc =
        List.concat
          (List.init cycles (fun i ->
               List.concat_map
                 (fun r ->
                   let m = registers.(i) in
                   (if m land (1 lsl r) <> 0 then [ (i + 1, r, true) ] else [])
                   @ if m land (1 lsl (16 + r)) <> 0 then [ (i + 1, r, false) ] else [])
                 (List.init 15 succ)))
      in
      match
        live_in_disagreement t ~registers:packed (Array.of_list rungs)
          (Oracle.accesses ~ram_size:ram accesses reg_acc)
      with
      | None -> true
      | Some what -> QCheck.Test.fail_reportf "%s differs" what)

(* A register cell records its golden run's register trace once, for
   the analysis and the ladder together: serially, and on the domains
   backend, where both domains ask for the ladder. *)
let test_one_register_trace_per_golden_run () =
  let program = Codegen.compile (looper ()) in
  let n0 = Golden.register_replays () in
  let cell = Faultspace.analyse Faultspace.Bitflip_reg program in
  ignore (Faultspace.scan cell);
  Alcotest.(check int) "serial scan" 1 (Golden.register_replays () - n0);
  let n1 = Golden.register_replays () in
  ignore
    (Drive.scan ~backend:Pool.Domains ~jobs:2
       (Spec.build ~model:Faultspace.Bitflip_reg ~benchmark:"looper" (fun () ->
            program)));
  Alcotest.(check int) "domains -j 2" 1 (Golden.register_replays () - n1)

(* A bin_sem2/baseline ladder build (register trace, compiled replay,
   live-in sweep) from a golden run allocates at most this many minor
   words: the list-based build took 1,085,136 words and the sweep
   56,909, on OCaml 5.1.1; 47,741 since the register-trace replay
   compiles no blocks. *)
let ladder_minor_words_budget = 120_000

let test_ladder_allocation_budget () =
  let golden = Golden.run (Bin_sem2.baseline ()) in
  let w0 = Gc.minor_words () in
  ignore (Injector.plan golden);
  let words = Gc.minor_words () -. w0 in
  if words > float_of_int ladder_minor_words_budget then
    Alcotest.failf "a ladder build allocated %.0f minor words (budget %d)" words
      ladder_minor_words_budget

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
      let cell = Faultspace.of_golden Faultspace.Bitflip_mem golden in
      let planned = Faultspace.with_stride 8 cell in
      let reference = Faultspace.(scan (with_stride 0 cell)) in
      Alcotest.(check bool) (what ^ ": fixture has " ^ Outcome.to_string marker)
        true
        (outcome_count reference marker > 0);
      check_scans_identical (what ^ ": plan = replay") reference
        (Faultspace.scan planned);
      Alcotest.(check bool) (what ^ ": memo hits") true
        (Injector.exits
           (Injector.counts (planned.Faultspace.provider ()))
           Injector.Memo_hit
        > 0))
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
           Faultspace.(scan ~variant (with_stride 0 cell))
         in
         (model, cell, reference))
       memo_models)

(* flag1/sum+dmr reaches repeated faulty states under every model, so
   the plan = replay differential covers memo hits for each. *)
let test_memo_plan_equals_replay () =
  List.iter
    (fun (model, cell, reference) ->
      let planned = Faultspace.with_stride Injector.default_stride cell in
      check_scans_identical
        (Faultspace.tag model ^ " plan = replay")
        reference
        (Faultspace.scan ~variant:reference.Scan.variant planned);
      let counts = Injector.counts (planned.Faultspace.provider ()) in
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

(* A policy's checkpoint stride reaches the provider through the
   engine's one mapping (Runcell.analyse, as fi-cli sample takes it):
   stride 0 is the replay reference, with no ladder and no memo, and the
   default stride hits the memo. *)
let test_stride_reaches_provider () =
  let program = (Lazy.force flag1_dmr).Suite.build () in
  let golden = Golden.run program in
  List.iter
    (fun model ->
      let counts ?checkpoint_stride () =
        let policy = Spec.make_policy ?checkpoint_stride () in
        let cell = Runcell.analyse (Spec.of_golden ~policy ~model golden) in
        ignore (Faultspace.scan cell);
        Injector.counts (cell.Faultspace.provider ())
      in
      let tag = Faultspace.tag model in
      let replay = counts ~checkpoint_stride:0 () in
      Alcotest.(check int) (tag ^ " stride 0: no memo lookups") 0
        replay.Injector.memo_lookups;
      Alcotest.(check int) (tag ^ " stride 0: no ladder splice") 0
        (Injector.exits replay Injector.Ladder_splice);
      Alcotest.(check int) (tag ^ " stride 0: no memo hit") 0
        (Injector.exits replay Injector.Memo_hit);
      Alcotest.(check bool) (tag ^ " default stride: memo hits") true
        (Injector.exits (counts ()) Injector.Memo_hit > 0))
    memo_models

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
      Alcotest.test_case "checkpoint stride reaches the provider" `Quick
        test_stride_reaches_provider;
      Alcotest.test_case "memo shared across domains" `Quick
        test_memo_across_domains;
      Alcotest.test_case "suite ladders equal the list algorithm" `Quick
        test_suite_ladders_match_lists;
      QCheck_alcotest.to_alcotest qcheck_gen_ladders_match_lists;
      QCheck_alcotest.to_alcotest qcheck_live_in_matches_lists;
      Alcotest.test_case "one register trace per golden run" `Quick
        test_one_register_trace_per_golden_run;
      Alcotest.test_case "a ladder build stays within its allocation budget"
        `Quick test_ladder_allocation_budget;
    ] )
