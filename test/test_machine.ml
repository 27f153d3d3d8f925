(* Tests for the machine simulator: instruction semantics, memory map,
   traps, MMIO devices, determinism, injection primitives, snapshots. *)

let stop = Alcotest.testable Machine.pp_stop_reason ( = )

let program ?rom ?ram_init ?reg_init ?(ram_size = 64) code =
  Program.make ~name:"test" ~code:(Array.of_list code) ?rom ?ram_init ?reg_init
    ~ram_size ()

let run ?limit p =
  let m = Machine.create p in
  let reason = Machine.run m ~limit:(Option.value ~default:10_000 limit) in
  (m, reason)

let r = Isa.reg

(* ------------------------------------------------------------------ *)
(* ALU semantics                                                      *)
(* ------------------------------------------------------------------ *)

let alu_result op a b =
  let p =
    program
      [
        Isa.Li (r 1, a);
        Isa.Li (r 2, b);
        Isa.Alu (op, r 3, r 1, r 2);
        Isa.Halt;
      ]
  in
  let m, reason = run p in
  Alcotest.check stop "halted" Machine.Halted reason;
  Machine.reg m (r 3)

let test_alu_add_overflow () =
  Alcotest.(check int32) "wraps" Int32.min_int
    (alu_result Isa.Add 2147483647l 1l)

let test_alu_sub () =
  Alcotest.(check int32) "sub" (-5l) (alu_result Isa.Sub 5l 10l)

let test_alu_mul () =
  Alcotest.(check int32) "mul wraps" 1l (alu_result Isa.Mul 2147483647l 2147483647l)

let test_alu_divu () =
  Alcotest.(check int32) "unsigned division" 2147483647l
    (alu_result Isa.Divu (-2l) 2l)
  (* 0xFFFFFFFE / 2 = 0x7FFFFFFF *)

let test_alu_remu () =
  Alcotest.(check int32) "unsigned remainder" 3l (alu_result Isa.Remu 23l 5l)

let test_alu_div_by_zero () =
  let p =
    program [ Isa.Li (r 1, 1l); Isa.Alu (Isa.Divu, r 2, r 1, r 0); Isa.Halt ]
  in
  let _, reason = run p in
  Alcotest.check stop "trap" (Machine.Trapped Machine.Division_by_zero) reason

let test_alu_logic () =
  Alcotest.(check int32) "and" 0b1000l (alu_result Isa.And 0b1100l 0b1010l);
  Alcotest.(check int32) "or" 0b1110l (alu_result Isa.Or 0b1100l 0b1010l);
  Alcotest.(check int32) "xor" 0b0110l (alu_result Isa.Xor 0b1100l 0b1010l)

let test_alu_shifts () =
  Alcotest.(check int32) "shl" 40l (alu_result Isa.Shl 5l 3l);
  Alcotest.(check int32) "shr logical" 0x7FFFFFFFl (alu_result Isa.Shr (-1l) 1l);
  Alcotest.(check int32) "sar arithmetic" (-1l) (alu_result Isa.Sar (-1l) 1l);
  Alcotest.(check int32) "shift amount masked" 10l (alu_result Isa.Shl 5l 33l)

let test_alu_slt () =
  Alcotest.(check int32) "signed lt" 1l (alu_result Isa.Slt (-1l) 0l);
  Alcotest.(check int32) "unsigned lt" 0l (alu_result Isa.Sltu (-1l) 0l)

let test_r0_hardwired () =
  let p = program [ Isa.Li (r 0, 99l); Isa.Alu (Isa.Add, r 1, r 0, r 0); Isa.Halt ] in
  let m, _ = run p in
  Alcotest.(check int32) "r0 stays zero" 0l (Machine.reg m (r 1))

(* ------------------------------------------------------------------ *)
(* Memory & MMIO                                                      *)
(* ------------------------------------------------------------------ *)

let test_byte_store_load () =
  let p =
    program
      [
        Isa.Li (r 1, 0xABl);
        Isa.Sb (r 1, r 0, 5l);
        Isa.Lb (r 2, r 0, 5l);
        Isa.Halt;
      ]
  in
  let m, _ = run p in
  Alcotest.(check int32) "roundtrip" 0xABl (Machine.reg m (r 2));
  Alcotest.(check int) "in ram" 0xAB (Machine.read_ram_byte m 5)

let test_word_endianness () =
  let p =
    program
      [
        Isa.Li (r 1, 0x11223344l);
        Isa.Sw (r 1, r 0, 8l);
        Isa.Lb (r 2, r 0, 8l);
        Isa.Lb (r 3, r 0, 11l);
        Isa.Halt;
      ]
  in
  let m, _ = run p in
  Alcotest.(check int32) "little-endian low byte" 0x44l (Machine.reg m (r 2));
  Alcotest.(check int32) "high byte" 0x11l (Machine.reg m (r 3));
  (* Word loads assemble bytes little-endian too, on every host. *)
  let p =
    program
      [
        Isa.Li (r 1, 0x44l);
        Isa.Sb (r 1, r 0, 8l);
        Isa.Li (r 1, 0x11l);
        Isa.Sb (r 1, r 0, 11l);
        Isa.Lw (r 2, r 0, 8l);
        Isa.Halt;
      ]
  in
  let m, _ = run p in
  Alcotest.(check int32) "word from bytes" 0x11000044l (Machine.reg m (r 2))

let test_misaligned_word () =
  let p = program [ Isa.Li (r 1, 1l); Isa.Sw (r 1, r 0, 2l); Isa.Halt ] in
  let _, reason = run p in
  Alcotest.check stop "trap" (Machine.Trapped (Machine.Misaligned_access 2)) reason

let test_unmapped_access () =
  let p = program [ Isa.Lb (r 1, r 0, 9999l); Isa.Halt ] in
  let _, reason = run p in
  Alcotest.check stop "trap" (Machine.Trapped (Machine.Unmapped_access 9999)) reason

let test_rom_read () =
  let p =
    program ~rom:(Bytes.of_string "Z")
      [
        Isa.Li (r 1, Int32.of_int Memmap.rom_base);
        Isa.Lb (r 2, r 1, 0l);
        Isa.Halt;
      ]
  in
  let m, _ = run p in
  Alcotest.(check int32) "rom byte" (Int32.of_int (Char.code 'Z')) (Machine.reg m (r 2))

let test_rom_write_traps () =
  let p =
    program
      [
        Isa.Li (r 1, Int32.of_int Memmap.rom_base);
        Isa.Sb (r 1, r 1, 0l);
        Isa.Halt;
      ]
  in
  let _, reason = run p in
  Alcotest.check stop "trap"
    (Machine.Trapped (Machine.Rom_write Memmap.rom_base))
    reason

let test_serial_output () =
  let p =
    program
      [
        Isa.Li (r 1, Int32.of_int Memmap.serial_port);
        Isa.Li (r 2, 72l);
        Isa.Sb (r 2, r 1, 0l);
        Isa.Li (r 2, 105l);
        Isa.Sb (r 2, r 1, 0l);
        Isa.Halt;
      ]
  in
  let m, _ = run p in
  Alcotest.(check string) "serial" "Hi" (Machine.serial_output m)

let test_detect_port () =
  let p =
    program
      [
        Isa.Li (r 1, Int32.of_int Memmap.detect_port);
        Isa.Li (r 2, 1l);
        Isa.Sw (r 2, r 1, 0l);
        Isa.Halt;
      ]
  in
  let m, _ = run p in
  match Machine.detection_events m with
  | [ (cycle, code) ] ->
      Alcotest.(check int32) "code" 1l code;
      Alcotest.(check int) "cycle" 3 cycle
  | events -> Alcotest.failf "expected 1 event, got %d" (List.length events)

let test_panic_port () =
  let p =
    program
      [
        Isa.Li (r 1, Int32.of_int Memmap.panic_port);
        Isa.Li (r 2, 0xDEADl);
        Isa.Sw (r 2, r 1, 0l);
        Isa.Halt;
      ]
  in
  let _, reason = run p in
  Alcotest.check stop "panic" (Machine.Panicked 0xDEADl) reason

let test_ram_init_and_reg_init () =
  let p =
    program
      ~ram_init:[ (4, Bytes.of_string "\x2A") ]
      ~reg_init:[ (r 5, 17l) ]
      [ Isa.Lb (r 1, r 0, 4l); Isa.Alu (Isa.Add, r 2, r 1, r 5); Isa.Halt ]
  in
  let m, _ = run p in
  Alcotest.(check int32) "init applied" 59l (Machine.reg m (r 2))

(* ------------------------------------------------------------------ *)
(* Control flow                                                       *)
(* ------------------------------------------------------------------ *)

let test_call_return () =
  (* main: jal f; halt.  f: r1 <- 7; jr ra *)
  let p =
    program
      [
        Isa.Jal (Isa.ra, 2);
        Isa.Halt;
        Isa.Li (r 1, 7l);
        Isa.Jr Isa.ra;
      ]
  in
  let m, reason = run p in
  Alcotest.check stop "halted" Machine.Halted reason;
  Alcotest.(check int32) "callee ran" 7l (Machine.reg m (r 1));
  Alcotest.(check int) "cycles" 4 (Machine.cycle m)

let test_bad_jump_traps () =
  let p = program [ Isa.Li (r 1, 999l); Isa.Jr (r 1) ] in
  let _, reason = run p in
  Alcotest.check stop "trap" (Machine.Trapped (Machine.Bad_pc 999)) reason

let test_fallthrough_end_traps () =
  (* The fetch at [pc = length code] takes its cycle on every path. *)
  let p = program [ Isa.Nop ] in
  let check path m reason =
    Alcotest.check stop (path ^ ": trap") (Machine.Trapped (Machine.Bad_pc 1))
      reason;
    Alcotest.(check int) (path ^ ": cycle") 2 (Machine.cycle m)
  in
  let stopped m = Option.value ~default:Machine.Cycle_limit (Machine.stopped m) in
  let m, reason = run p in
  check "compiled run" m reason;
  let m = Machine.create p in
  Machine.step m;
  Machine.step m;
  check "step" m (stopped m);
  let m = Machine.create ~exec_tracer:(fun ~cycle:_ _ -> ()) p in
  check "exec-traced run" m (Machine.run m ~limit:100);
  let m = Machine.create p in
  Machine.skip_next m;
  Machine.skip_next m;
  check "skip_next" m (stopped m)

let test_cycle_limit () =
  let p = program [ Isa.Jmp 0 ] in
  let _, reason = run ~limit:100 p in
  Alcotest.check stop "limit" Machine.Cycle_limit reason

let test_branch_conditions () =
  (* For each cond, branch taken iff cond holds on (1, 2). *)
  let taken c a b =
    let p =
      program
        [
          Isa.Li (r 1, a);
          Isa.Li (r 2, b);
          Isa.Beq (r 1, r 2, 5, c);
          Isa.Li (r 3, 0l);
          Isa.Halt;
          Isa.Li (r 3, 1l);
          Isa.Halt;
        ]
    in
    let m, _ = run p in
    Machine.reg m (r 3) = 1l
  in
  Alcotest.(check bool) "eq" true (taken Isa.Eq 5l 5l);
  Alcotest.(check bool) "eq false" false (taken Isa.Eq 5l 6l);
  Alcotest.(check bool) "ne" true (taken Isa.Ne 5l 6l);
  Alcotest.(check bool) "lt signed" true (taken Isa.Lt (-1l) 0l);
  Alcotest.(check bool) "ltu unsigned" false (taken Isa.Ltu (-1l) 0l);
  Alcotest.(check bool) "ge" true (taken Isa.Ge 3l 3l);
  Alcotest.(check bool) "geu" true (taken Isa.Geu (-1l) 0l)

(* ------------------------------------------------------------------ *)
(* Determinism, injection, snapshots                                  *)
(* ------------------------------------------------------------------ *)

let loop_program =
  (* Accumulates into RAM over many cycles. *)
  program ~ram_size:64
    [
      Isa.Li (r 1, 25l);
      Isa.Lw (r 2, r 0, 0l);
      Isa.Alu (Isa.Add, r 2, r 2, r 1);
      Isa.Sw (r 2, r 0, 0l);
      Isa.Alui (Isa.Sub, r 1, r 1, 1l);
      Isa.Beq (r 1, r 0, 1, Isa.Ne);
      Isa.Halt;
    ]

let test_determinism () =
  let snapshot m = (Machine.cycle m, Machine.serial_output m, Machine.pc m) in
  let m1, _ = run loop_program in
  let m2, _ = run loop_program in
  Alcotest.(check bool) "identical" true (snapshot m1 = snapshot m2);
  Alcotest.(check int) "ram equal" (Machine.read_ram_byte m1 0)
    (Machine.read_ram_byte m2 0)

let test_flip_bit () =
  let m = Machine.create loop_program in
  Machine.flip_bit m 3;
  Alcotest.(check int) "bit 3 of byte 0" 8 (Machine.read_ram_byte m 0);
  Machine.flip_bit m 3;
  Alcotest.(check int) "flip back" 0 (Machine.read_ram_byte m 0);
  Alcotest.check_raises "outside ram"
    (Invalid_argument "Machine.flip_bit: offset 100 outside RAM") (fun () ->
      Machine.flip_bit m 800)

let test_run_until () =
  let m = Machine.create loop_program in
  Machine.run_until m ~cycle:10;
  Alcotest.(check int) "paused at cycle" 10 (Machine.cycle m);
  Alcotest.(check bool) "not stopped" true (Machine.stopped m = None);
  ignore (Machine.run m ~limit:10_000);
  Alcotest.(check bool) "finished" true (Machine.stopped m = Some Machine.Halted)

let test_snapshot_equivalence () =
  (* Running straight vs capture/restore mid-way must agree exactly. *)
  let m1 = Machine.create loop_program in
  ignore (Machine.run m1 ~limit:10_000);
  let m2 = Machine.create loop_program in
  Machine.run_until m2 ~cycle:37;
  let snap = Machine.Snapshot.capture m2 in
  let m3 = Machine.Snapshot.restore snap in
  ignore (Machine.run m3 ~limit:10_000);
  Alcotest.(check int) "cycles equal" (Machine.cycle m1) (Machine.cycle m3);
  Alcotest.(check int) "ram equal" (Machine.read_ram_byte m1 0)
    (Machine.read_ram_byte m3 0)

let test_snapshot_isolation () =
  let m = Machine.create loop_program in
  Machine.run_until m ~cycle:20;
  let snap = Machine.Snapshot.capture m in
  let fork = Machine.Snapshot.restore snap in
  Machine.flip_bit fork 0;
  Alcotest.(check bool) "original unaffected" true
    (Machine.read_ram_byte m 0 <> Machine.read_ram_byte fork 0
    || Machine.read_ram_byte m 0 land 1 = 0)

let test_tracer_records () =
  let events = ref [] in
  let tracer ~cycle ~addr ~width ~kind =
    events := (cycle, addr, width, kind) :: !events
  in
  let p =
    program
      [
        Isa.Li (r 1, 7l);
        Isa.Sw (r 1, r 0, 4l);
        Isa.Lb (r 2, r 0, 4l);
        Isa.Halt;
      ]
  in
  let m = Machine.create ~tracer p in
  ignore (Machine.run m ~limit:100);
  Alcotest.(check (list (triple int int int)))
    "accesses"
    [ (2, 4, 4); (3, 4, 1) ]
    (List.rev_map (fun (c, a, w, _) -> (c, a, w)) !events)

(* ------------------------------------------------------------------ *)
(* Compiled blocks vs the reference interpreter                       *)
(* ------------------------------------------------------------------ *)

(* The compiled path runs [run_until] segments of 1 to 200 cycles, so
   budgets end at every position in a block; the reference runs
   [step] after [step].  A fault [(cycle, flip)] is applied to both at
   that cycle.  Both finish with [run ~limit], so a run that reaches
   the limit stops with [Cycle_limit] on both. *)
let drive m ~limit ~fault ~advance =
  let pending = ref fault in
  let rec go () =
    (match !pending with
    | Some (at, flip) when Machine.cycle m = at ->
        pending := None;
        flip m
    | _ -> ());
    if Machine.stopped m = None && Machine.cycle m < limit then begin
      let upto =
        match !pending with Some (at, _) -> min limit at | None -> limit
      in
      let before = Machine.cycle m in
      advance m ~upto;
      if Machine.stopped m = None && Machine.cycle m = before then
        Alcotest.failf "no progress at cycle %d" before;
      go ()
    end
  in
  go ();
  ignore (Machine.run m ~limit)

let access_string (cycle, addr, width, kind) =
  Printf.sprintf "%d:%d/%d%s" cycle addr width
    (match kind with Machine.Read -> "r" | Machine.Write -> "w")

(* Run [p] both ways and compare everything a run can show: cycle, pc,
   stop reason, r1-r15, RAM, serial output, detection events with their
   cycles, and the tracer's accesses. *)
let check_differential ~name rng ?fault ~limit p =
  let traced () =
    let log = ref [] in
    let tracer ~cycle ~addr ~width ~kind =
      log := access_string (cycle, addr, width, kind) :: !log
    in
    (Machine.create ~tracer p, log)
  in
  let compiled, clog = traced () and reference, rlog = traced () in
  drive compiled ~limit ~fault ~advance:(fun m ~upto ->
      Machine.run_until m
        ~cycle:(min upto (Machine.cycle m + 1 + Prng.int rng 200)));
  drive reference ~limit ~fault ~advance:(fun m ~upto:_ -> Machine.step m);
  let field what = name ^ ": " ^ what in
  let ram m =
    String.init p.Program.ram_size (fun i -> Char.chr (Machine.read_ram_byte m i))
  in
  let regs m = List.init 15 (fun i -> Machine.reg m (r (i + 1))) in
  Alcotest.(check int) (field "cycle") (Machine.cycle reference)
    (Machine.cycle compiled);
  Alcotest.(check int) (field "pc") (Machine.pc reference) (Machine.pc compiled);
  Alcotest.(check (option stop)) (field "stop") (Machine.stopped reference)
    (Machine.stopped compiled);
  Alcotest.(check (list int32)) (field "r1-r15") (regs reference) (regs compiled);
  Alcotest.(check string) (field "ram") (ram reference) (ram compiled);
  Alcotest.(check string) (field "serial")
    (Machine.serial_output reference)
    (Machine.serial_output compiled);
  Alcotest.(check (list (pair int int32))) (field "events")
    (Machine.detection_events reference)
    (Machine.detection_events compiled);
  Alcotest.(check (list string)) (field "accesses") (List.rev !rlog)
    (List.rev !clog)

(* A random RAM or register bit flip at a random cycle up to [cycles]. *)
let random_fault rng p ~cycles =
  let at = Prng.int rng (cycles + 1) in
  if Prng.bool rng then
    let bit = Prng.int rng (8 * p.Program.ram_size) in
    (at, fun m -> Machine.flip_bit m bit)
  else
    let reg = 1 + Prng.int rng 15 and bit = Prng.int rng 32 in
    (at, fun m -> Machine.flip_reg_bit m ~reg ~bit)

(* Straight-line filler with RAM traffic: [3 n] instructions, no
   control transfer, so runs of it span several blocks. *)
let line n =
  List.concat
    (List.init n (fun i ->
         [
           Isa.Alui (Isa.Add, r 1, r 1, Int32.of_int (i + 3));
           Isa.Sw (r 1, r 0, Int32.of_int (4 * (i mod 8)));
           Isa.Lb (r 2, r 0, Int32.of_int (i mod 32));
         ]))

let li reg v = Isa.Li (r reg, Int32.of_int v)

(* Each traps, stops or transfers in the middle of a block, or leaves
   the code, after a straight-line run longer than a block. *)
let edge_programs =
  let rom = Bytes.of_string "ROMDATA!" in
  let p ?reg_init code = program ~rom ?reg_init code in
  let bad_targets code =
    (* Program.make rejects static targets outside the code; the
       machine still traps on them. *)
    { (program [ Isa.Halt ]) with Program.code = Array.of_list code }
  in
  [
    ("misaligned lw", p (line 7 @ [ Isa.Lw (r 3, r 0, 2l) ] @ line 2 @ [ Isa.Halt ]));
    ("misaligned sw", p (line 6 @ [ Isa.Sw (r 1, r 0, 6l) ] @ line 2 @ [ Isa.Halt ]));
    ( "divu by zero",
      p (line 6 @ [ Isa.Alu (Isa.Divu, r 3, r 1, r 0) ] @ line 2 @ [ Isa.Halt ]) );
    ( "remu by immediate zero",
      p (line 5 @ [ Isa.Alui (Isa.Remu, r 3, r 1, 0l) ] @ line 2 @ [ Isa.Halt ]) );
    ( "rom write",
      p (line 6 @ [ li 4 Memmap.rom_base; Isa.Sb (r 1, r 4, 0l) ] @ line 2
        @ [ Isa.Halt ]) );
    ( "unmapped load",
      p (line 6 @ [ Isa.Lb (r 3, r 0, 9999l) ] @ line 2 @ [ Isa.Halt ]) );
    ( "unmapped store",
      p (line 6 @ [ li 4 0x500000; Isa.Sw (r 1, r 4, 0l) ] @ line 2 @ [ Isa.Halt ]) );
    ( "rom and mmio loads",
      p
        (line 5
        @ [ li 4 Memmap.rom_base; Isa.Lw (r 5, r 4, 4l); Isa.Lb (r 6, r 4, 1l);
            li 7 Memmap.detect_port; Isa.Lw (r 8, r 7, 0l); Isa.Lb (r 9, r 7, 1l) ]
        @ line 5 @ [ Isa.Halt ]) );
    ( "serial and detect ports",
      p
        (line 4
        @ [ li 5 Memmap.serial_port; Isa.Sb (r 1, r 5, 0l);
            li 6 Memmap.detect_port; Isa.Sw (r 1, r 6, 0l) ]
        @ line 4
        @ [ Isa.Sb (r 2, r 5, 0l); Isa.Sw (r 2, r 6, 0l) ]
        @ line 3 @ [ Isa.Halt ]) );
    ( "panic port",
      p
        (line 4
        @ [ li 5 Memmap.serial_port; Isa.Sb (r 1, r 5, 0l);
            li 6 Memmap.detect_port; Isa.Sw (r 1, r 6, 0l);
            li 7 Memmap.panic_port; Isa.Sw (r 1, r 7, 0l) ]
        @ line 3 @ [ Isa.Halt ]) );
    ("jr to a bad pc", p (line 6 @ [ li 8 5000; Isa.Jr (r 8) ]));
    ( "r0 destinations",
      p ~reg_init:[ (r 1, 5l) ]
        (line 3
        @ [ Isa.Li (r 0, 7l); Isa.Alu (Isa.Add, r 0, r 1, r 1);
            Isa.Alui (Isa.Or, r 0, r 0, 5l); Isa.Lw (r 0, r 0, 0l);
            Isa.Lb (r 0, r 0, 1l); Isa.Jal (r 0, 15);
            Isa.Alu (Isa.Add, r 2, r 0, r 0); Isa.Sw (r 0, r 0, 8l);
            Isa.Halt ]) );
    ("falls off the end", p (line 7));
    ( "call and loop",
      p
        ([ li 3 6; Isa.Jal (Isa.ra, 5); Isa.Alui (Isa.Sub, r 3, r 3, 1l);
           Isa.Beq (r 3, r 0, 1, Isa.Ne); Isa.Halt ]
        @ line 6 @ [ Isa.Jr Isa.ra ]) );
    ("cycle limit mid-block", p (line 7 @ [ Isa.Jmp 0 ]));
    ("jmp to a bad pc", bad_targets (line 6 @ [ Isa.Jmp 99 ]));
    ("jal to a bad pc", bad_targets (line 6 @ [ Isa.Jal (Isa.ra, 99) ]));
    ( "beq to a bad pc",
      bad_targets
        (line 6
        @ [ Isa.Beq (r 1, r 0, 99, Isa.Eq); Isa.Beq (r 1, r 0, 99, Isa.Ne) ]) );
  ]

let test_differential_edges () =
  let rng = Prng.create ~seed:19L in
  List.iter
    (fun (name, p) ->
      let limit = 400 in
      for _ = 1 to 20 do
        check_differential ~name rng ~limit p
      done;
      for _ = 1 to 20 do
        check_differential ~name:(name ^ " + fault") rng
          ~fault:(random_fault rng p ~cycles:limit)
          ~limit p
      done)
    edge_programs

(* ------------------------------------------------------------------ *)
(* Fused idioms                                                       *)
(* ------------------------------------------------------------------ *)

let shli rd rs s = Isa.Alui (Isa.Shl, r rd, r rs, Int32.of_int s)
let lw rd rs off = Isa.Lw (r rd, r rs, Int32.of_int off)

(* [groups] after a straight-line prelude that fills RAM words 0-28,
   then a halt.  [nop]s pad each group to end a block (the compiler's
   blocks end at every 16th pc), so a run that stops at a block end
   sees what the group's closure did.  Each group comes with the
   {!Machine.fused_length} expected at its first pc. *)
let fused_program ?(ram_size = 64) groups =
  let code = ref (line 4) and expect = ref [] in
  List.iter
    (fun (group, fused) ->
      let pos = List.length !code and len = List.length group in
      let pad = (16 - ((pos + len) mod 16)) mod 16 in
      code := !code @ List.init pad (fun _ -> Isa.Nop);
      expect := (List.length !code, fused) :: !expect;
      code := !code @ group)
    groups;
  ( program ~rom:(Bytes.of_string "ROMDATA!") ~ram_size
      (!code @ line 1 @ [ Isa.Halt ]),
    List.rev !expect )

let all_ops =
  Isa.[ Add; Sub; Mul; Divu; Remu; And; Or; Xor; Shl; Shr; Sar; Slt; Sltu ]

(* Fusing cases and near misses; those that trap stop their program. *)
let fused_cases =
  let li_op ?(ra = 1) c op rd =
    let fused = match op with Isa.Divu | Isa.Remu -> 1 | _ -> 2 in
    ([ li 4 c; Isa.Alu (op, r rd, r ra, r 4) ], fused)
  in
  [
    ( "li;op, every op",
      fused_program
        (List.concat_map
           (fun op -> [ li_op 0x80000021 op 5; li_op 33 op 6; li_op 7 op 7 ])
           all_ops) );
    ( "li;op, r0 and aliases",
      fused_program
        [
          ([ Isa.Li (r 0, 7l); Isa.Alu (Isa.Add, r 5, r 1, r 0) ], 2);
          ([ li 4 9; Isa.Alu (Isa.Sub, r 0, r 1, r 4) ], 2);
          ([ li 4 9; Isa.Alu (Isa.Or, r 4, r 1, r 4) ], 2);
          ([ li 4 9; Isa.Alu (Isa.Xor, r 6, r 0, r 4) ], 2);
          ([ li 4 9; Isa.Alu (Isa.Add, r 5, r 4, r 4) ], 1);
          ([ li 4 0; Isa.Alu (Isa.Remu, r 5, r 1, r 4) ], 1);
        ] );
    ( "li;shli;lw, constant RAM words",
      fused_program
        [
          ([ li 4 3; shli 4 4 2; lw 4 4 8 ], 3);
          ([ li 4 2; shli 5 4 3; lw 6 5 0 ], 3);
          ([ li 4 1; shli 5 4 2; lw 4 5 4 ], 3);
          ([ Isa.Li (r 0, 5l); shli 4 0 2; lw 5 4 8 ], 3);
          ([ li 4 3; shli 0 4 2; lw 5 0 12 ], 3);
          ([ li 4 3; shli 4 4 2; lw 0 4 8 ], 3);
          ([ li 4 4; shli 4 4 2; lw 7 4 (-4) ], 3);
          ([ li 4 15; shli 4 4 2; lw 7 4 0 ], 3);
          ([ li 4 3; shli 5 6 2; lw 5 5 8 ], 1);
          ([ li 4 3; shli 5 4 2; lw 6 7 8 ], 1);
        ] );
    ( "li;shli;lw, misaligned",
      fused_program [ ([ li 4 3; shli 4 4 1; lw 5 4 8 ], 1) ] );
    ( "li;shli;lw, ROM",
      fused_program
        [ ([ li 4 (Memmap.rom_base / 4); shli 4 4 2; lw 5 4 4 ], 1) ] );
    ( "li;shli;lw, serial port",
      fused_program
        [ ([ li 4 (Memmap.serial_port / 4); shli 4 4 2; lw 5 4 0 ], 1) ] );
    ( "li;shli;lw, past RAM",
      fused_program [ ([ li 4 16; shli 4 4 2; lw 5 4 0 ], 1) ] );
    ( "li;shli;lw, past a 62-byte RAM",
      fused_program ~ram_size:62 [ ([ li 4 15; shli 4 4 2; lw 5 4 0 ], 1) ] );
  ]

(* Everything a run can show, as one string. *)
let summary m =
  let ram_size = (Machine.program m).Program.ram_size in
  let regs = List.init 15 (fun i -> Int32.to_string (Machine.reg m (r (i + 1)))) in
  let events =
    List.map
      (fun (c, v) -> Printf.sprintf "%d:%ld" c v)
      (Machine.detection_events m)
  in
  Format.asprintf "cycle %d pc %d stop %a regs %s ram %S serial %S events %s"
    (Machine.cycle m) (Machine.pc m)
    (Format.pp_print_option Machine.pp_stop_reason)
    (Machine.stopped m) (String.concat "," regs)
    (String.init ram_size (fun i -> Char.chr (Machine.read_ram_byte m i)))
    (Machine.serial_output m) (String.concat "," events)

(* A machine with an exec tracer only steps, so it compiles no blocks:
   [Machine.create ~exec_tracer] on bin_sem2/baseline allocates a few
   dozen minor words (its RAM image is a direct major allocation).  It
   took 9,207 more while it compiled eagerly, on OCaml 5.1.1. *)
let traced_create_minor_words_budget = 200

let test_traced_create_compiles_nothing () =
  let p = Bin_sem2.baseline () in
  let exec_tracer ~cycle:_ _ = () in
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Machine.create ~exec_tracer p));
  let words = Gc.minor_words () -. w0 in
  if words > float_of_int traced_create_minor_words_budget then
    Alcotest.failf "an exec-traced create allocated %.0f minor words (budget %d)"
      words traced_create_minor_words_budget

(* Snapshots and forks of an exec-traced machine run compiled, on the
   blocks their first run compiles: they end as the reference
   interpreter does, stepped from reset. *)
let test_traced_snapshot_runs_compiled () =
  let p = Bin_sem2.baseline () in
  let limit = 1_000_000 in
  let reference = Machine.create p in
  while Machine.stopped reference = None && Machine.cycle reference < limit do
    Machine.step reference
  done;
  let expected = summary reference in
  let traced = Machine.create ~exec_tracer:(fun ~cycle:_ _ -> ()) p in
  Machine.run_until traced ~cycle:(Machine.cycle reference / 3);
  let snap = Machine.Snapshot.capture traced in
  let fork = Machine.fork traced in
  List.iter
    (fun (what, m) ->
      ignore (Machine.run m ~limit);
      Alcotest.(check string) what expected (summary m))
    [
      ("restored snapshot", Machine.Snapshot.restore snap);
      ("second restore, blocks compiled", Machine.Snapshot.restore snap);
      ("fork", fork);
      ("the traced machine itself", traced);
    ]

let test_fused_idioms () =
  let rng = Prng.create ~seed:23L in
  List.iter
    (fun (name, (p, expect)) ->
      List.iter
        (fun (pc, fused) ->
          Alcotest.(check int)
            (Printf.sprintf "%s: fused length at pc %d" name pc)
            fused (Machine.fused_length p pc))
        expect;
      let limit = 400 in
      for _ = 1 to 20 do
        check_differential ~name rng ~limit p;
        check_differential ~name:(name ^ " + fault") rng
          ~fault:(random_fault rng p ~cycles:limit)
          ~limit p
      done;
      (* Stop at every cycle, in a fused group too, and compare with
         the reference there; then finish on a restored snapshot,
         which enters the group's block mid-way. *)
      let final = Machine.create ~exec_tracer:(fun ~cycle:_ _ -> ()) p in
      ignore (Machine.run final ~limit);
      let stepped = Machine.create p in
      for c = 0 to Machine.cycle final do
        let m = Machine.create p in
        Machine.run_until m ~cycle:c;
        Alcotest.(check string)
          (Printf.sprintf "%s: stopped at cycle %d" name c)
          (summary stepped) (summary m);
        Machine.step stepped;
        let m = Machine.Snapshot.restore (Machine.Snapshot.capture m) in
        ignore (Machine.run m ~limit);
        Alcotest.(check string)
          (Printf.sprintf "%s: restored at cycle %d" name c)
          (summary final) (summary m)
      done)
    fused_cases

(* Generated programs, baseline or hardened, each with a random fault
   and a limit past which a faulty run is cut off: traps, detections
   and the watchdog mid-block.  FI_INTERP_DIFF_CASES overrides the
   case count (the @interp-diff alias runs a long one). *)
let test_differential_generated () =
  let cases =
    Option.fold ~none:30 ~some:int_of_string
      (Sys.getenv_opt "FI_INTERP_DIFF_CASES")
  in
  let rng = Prng.create ~seed:2015L in
  (* Programs with each fused idiom: the differential must cover both. *)
  let with_fused = [| 0; 0; 0; 0 |] in
  for case = 1 to cases do
    let prog = Gen.program rng in
    let variant, prog =
      match Prng.int rng 3 with
      | 0 -> ("baseline", prog)
      | 1 -> ("sum+dmr", Harden.sum_dmr prog)
      | _ -> ("tmr", Harden.tmr prog)
    in
    let p = Codegen.compile prog in
    let lengths = List.init (Program.code_length p) (Machine.fused_length p) in
    List.iter
      (fun n -> if List.mem n lengths then with_fused.(n) <- with_fused.(n) + 1)
      [ 2; 3 ];
    let golden = Machine.create p in
    ignore (Machine.run golden ~limit:1_000_000);
    let cycles = Machine.cycle golden in
    let name = Printf.sprintf "case %d (%s)" case variant in
    check_differential ~name rng ~limit:((2 * cycles) + 50) p;
    check_differential ~name:(name ^ " + fault") rng
      ~fault:(random_fault rng p ~cycles)
      ~limit:(cycles + Prng.int rng cycles + 1)
      p
  done;
  if with_fused.(2) = 0 || with_fused.(3) = 0 then
    Alcotest.failf
      "of %d generated programs, %d contain li;op and %d li;shli;lw: the \
       differential does not cover both fused idioms"
      cases with_fused.(2) with_fused.(3)

(* ------------------------------------------------------------------ *)
(* Splice test and memo key against byte-wise definitions             *)
(* ------------------------------------------------------------------ *)

(* A machine [a] with random RAM (of [ram_size] bytes, every byte
   random) and registers, one cycle in at pc 1; its snapshot; and a
   machine [b] that differs from it in a few RAM bytes (half of them
   in the final partial word, when there is one) and registers, and
   in pc ([mismatch = 1]) or cycle ([mismatch = 2]).  Code:
   [0: r15 <> 0 ? 2 : 1], [1: jmp 1], [2: jmp 2]. *)
let random_pair st ~ram_size ~mismatch =
  let p =
    program ~ram_size
      [ Isa.Beq (r 15, r 0, 2, Isa.Ne); Isa.Jmp 1; Isa.Jmp 2 ]
  in
  let fill m =
    for b = 0 to ram_size - 1 do
      Machine.write_ram_byte m b (Random.State.int st 256)
    done;
    for i = 1 to 14 do
      Machine.set_reg m (r i) (Random.State.bits32 st)
    done
  in
  let a = Machine.create p in
  fill a;
  let b = Machine.fork a in
  Machine.step a;
  let snap = Machine.Snapshot.capture a in
  if mismatch = 1 then Machine.set_reg b (r 15) 1l;
  Machine.step b;
  if mismatch = 2 then Machine.step b;
  let tail = ram_size land 7 in
  for _ = 1 to Random.State.int st 4 do
    let off =
      if tail > 0 && Random.State.bool st then
        ram_size - 1 - Random.State.int st tail
      else Random.State.int st ram_size
    in
    Machine.write_ram_byte b off
      (Machine.read_ram_byte b off lxor (1 + Random.State.int st 255))
  done;
  for _ = 1 to Random.State.int st 3 do
    let i = 1 + Random.State.int st 15 in
    Machine.set_reg b (r i)
      (Int32.logxor (Machine.reg b (r i)) (Random.State.bits32 st))
  done;
  (a, snap, b)

let qcheck_splice_bytewise =
  QCheck.Test.make ~count:500
    ~name:"word-masked converges_with equals the byte-wise definition"
    QCheck.(triple (int_range 1 100) (int_bound 2) int)
    (fun (ram_size, mismatch, seed) ->
      let st = Random.State.make [| seed |] in
      let a, snap, b = random_pair st ~ram_size ~mismatch in
      let density = [| 0.0; 0.05; 0.3; 1.0 |].(Random.State.int st 4) in
      let live =
        List.filter
          (fun _ -> Random.State.float st 1.0 < density)
          (List.init ram_size Fun.id)
      in
      (* The final partial word's bytes, live or not, half the time. *)
      let live =
        if Random.State.bool st then live
        else live @ List.init (ram_size land 7) (fun i -> ram_size - 1 - i)
      in
      let reg_mask = Random.State.int st 0x10000 land 0xFFFE in
      let mask = Bytes.make ram_size '\000' in
      List.iter (fun i -> Bytes.set mask i '\xff') live;
      let bytewise =
        Machine.cycle b = Machine.cycle a
        && Machine.pc b = Machine.pc a
        && Machine.stopped b = None
        && List.for_all
             (fun i ->
               reg_mask land (1 lsl i) = 0
               || Machine.reg b (r i) = Machine.reg a (r i))
             (List.init 15 succ)
        && List.for_all
             (fun i -> Machine.read_ram_byte b i = Machine.read_ram_byte a i)
             live
      in
      Machine.converges_with b snap ~ram_live:(Machine.live_ram mask) ~reg_mask
      = bytewise)

(* The layout of {!Machine.encode_diff}, one byte at a time, without
   the leading snapshot id: [a] is the machine [snap] captured. *)
let encode_bytewise m a =
  let buf = Buffer.create 64 in
  let rec varint n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (n land 0x7F lor 0x80));
      varint (n lsr 7)
    end
  in
  varint (Machine.serial_length m);
  varint (Machine.event_count m);
  varint (Machine.pc m);
  let differs i = Machine.reg m (r i) <> Machine.reg a (r i) in
  let regs = List.filter differs (List.init 15 succ) in
  Buffer.add_uint16_le buf
    (List.fold_left (fun acc i -> acc lor (1 lsl i)) 0 regs);
  List.iter (fun i -> Buffer.add_int32_le buf (Machine.reg m (r i))) regs;
  let n = (Machine.program m).Program.ram_size in
  for off = 0 to n - 1 do
    let v = Machine.read_ram_byte m off in
    if v <> Machine.read_ram_byte a off then begin
      if n <= 0x10000 then Buffer.add_uint16_le buf off
      else Buffer.add_int32_le buf (Int32.of_int off);
      Buffer.add_uint8 buf v
    end
  done;
  Buffer.contents buf

let qcheck_memo_key_bytewise =
  QCheck.Test.make ~count:300
    ~name:"encode_diff equals a byte-at-a-time encoder"
    QCheck.(triple (int_range 1 100) (int_bound 2) int)
    (fun (small, mismatch, seed) ->
      let st = Random.State.make [| seed |] in
      (* Both offset widths: RAM up to and past 64 KiB. *)
      let ram_size =
        if Random.State.int st 8 = 0 then 0x10000 - 8 + Random.State.int st 17
        else small
      in
      let a, snap, b = random_pair st ~ram_size ~mismatch in
      let encode m =
        let buf = Buffer.create 64 in
        Machine.encode_diff buf m snap;
        Buffer.contents buf
      in
      (* The snapshot's id is the one part the byte-wise layout lacks:
         take it from the encoding of the snapshot itself. *)
      let itself = Machine.Snapshot.restore snap in
      let self = encode itself and self_tail = encode_bytewise itself a in
      let id =
        String.sub self 0 (String.length self - String.length self_tail)
      in
      String.ends_with ~suffix:self_tail self
      && String.equal (encode b) (id ^ encode_bytewise b a))

let suite =
  ( "machine",
    [
      Alcotest.test_case "add overflow wraps" `Quick test_alu_add_overflow;
      Alcotest.test_case "sub" `Quick test_alu_sub;
      Alcotest.test_case "mul wraps" `Quick test_alu_mul;
      Alcotest.test_case "divu" `Quick test_alu_divu;
      Alcotest.test_case "remu" `Quick test_alu_remu;
      Alcotest.test_case "division by zero traps" `Quick test_alu_div_by_zero;
      Alcotest.test_case "logic ops" `Quick test_alu_logic;
      Alcotest.test_case "shifts" `Quick test_alu_shifts;
      Alcotest.test_case "set-less-than" `Quick test_alu_slt;
      Alcotest.test_case "r0 hardwired to zero" `Quick test_r0_hardwired;
      Alcotest.test_case "byte store/load" `Quick test_byte_store_load;
      Alcotest.test_case "word endianness" `Quick test_word_endianness;
      Alcotest.test_case "misaligned word traps" `Quick test_misaligned_word;
      Alcotest.test_case "unmapped access traps" `Quick test_unmapped_access;
      Alcotest.test_case "rom read" `Quick test_rom_read;
      Alcotest.test_case "rom write traps" `Quick test_rom_write_traps;
      Alcotest.test_case "serial output" `Quick test_serial_output;
      Alcotest.test_case "detect port" `Quick test_detect_port;
      Alcotest.test_case "panic port" `Quick test_panic_port;
      Alcotest.test_case "ram/reg init" `Quick test_ram_init_and_reg_init;
      Alcotest.test_case "call/return" `Quick test_call_return;
      Alcotest.test_case "bad jump traps" `Quick test_bad_jump_traps;
      Alcotest.test_case "fallthrough end traps" `Quick test_fallthrough_end_traps;
      Alcotest.test_case "cycle limit" `Quick test_cycle_limit;
      Alcotest.test_case "branch conditions" `Quick test_branch_conditions;
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "flip_bit" `Quick test_flip_bit;
      Alcotest.test_case "run_until" `Quick test_run_until;
      Alcotest.test_case "snapshot equivalence" `Quick test_snapshot_equivalence;
      Alcotest.test_case "snapshot isolation" `Quick test_snapshot_isolation;
      Alcotest.test_case "tracer records RAM accesses" `Quick test_tracer_records;
      Alcotest.test_case "compiled = reference: edge programs" `Quick
        test_differential_edges;
      Alcotest.test_case "compiled = reference: fused idioms" `Quick
        test_fused_idioms;
      Alcotest.test_case "compiled = reference: generated programs" `Quick
        test_differential_generated;
      Alcotest.test_case "an exec-traced create compiles nothing" `Quick
        test_traced_create_compiles_nothing;
      Alcotest.test_case "exec-traced snapshots run compiled = reference"
        `Quick test_traced_snapshot_runs_compiled;
      QCheck_alcotest.to_alcotest qcheck_splice_bytewise;
      QCheck_alcotest.to_alcotest qcheck_memo_key_bytewise;
    ] )
