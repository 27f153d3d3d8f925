(* Tests for the register fault-space extension (Section VI-B), pinned to
   hand-derived register def/use facts of the Hi program. *)

let hi_golden = lazy (Golden.run (Hi.program ()))
let hi = lazy (Regspace.of_golden (Lazy.force hi_golden))
let hi_cell =
  lazy Faultspace.(of_golden Bitflip_reg (Lazy.force hi_golden))

(* The registers a {!Isa.reg_uses_defs} mask names from bit [shift]
   on, ascending. *)
let regs_of mask shift =
  List.filter (fun r -> mask land (1 lsl (shift + r)) <> 0) (List.init 16 Fun.id)

let test_defs_uses () =
  let r = Isa.reg in
  let check instr expected_writes expected_reads =
    let mask = Isa.reg_uses_defs instr in
    Alcotest.(check (list int)) "writes" expected_writes (regs_of mask 16);
    Alcotest.(check (list int)) "reads" expected_reads (regs_of mask 0)
  in
  check (Isa.Alu (Isa.Add, r 1, r 2, r 3)) [ 1 ] [ 2; 3 ];
  check (Isa.Alui (Isa.Sub, r 4, r 5, 1l)) [ 4 ] [ 5 ];
  check (Isa.Li (r 6, 0l)) [ 6 ] [];
  check (Isa.Lw (r 7, r 8, 0l)) [ 7 ] [ 8 ];
  check (Isa.Sw (r 9, r 10, 0l)) [] [ 9; 10 ];
  check (Isa.Beq (r 1, r 2, 0, Isa.Eq)) [] [ 1; 2 ];
  check (Isa.Jal (Isa.ra, 0)) [ 15 ] [];
  check (Isa.Jr (r 11)) [] [ 11 ];
  check Isa.Nop [] [];
  (* r0 is excluded on both sides. *)
  check (Isa.Alu (Isa.Add, r 0, r 0, r 1)) [] [ 1 ];
  check (Isa.Sb (r 1, r 0, 0l)) [] [ 1 ]

(* The mask names exactly the registers of the list definition kept
   in [Oracle], on every instruction of every suite program. *)
let test_masks_match_lists () =
  let set regs =
    List.sort_uniq compare (List.map Isa.reg_index regs)
  in
  List.iter
    (fun (e : Suite.entry) ->
      Array.iter
        (fun instr ->
          let mask = Isa.reg_uses_defs instr in
          let writes, reads = Oracle.defs_uses instr in
          if
            regs_of mask 16 <> set writes
            || regs_of mask 0 <> set reads
            || mask land lnot 0xFFFE_FFFE <> 0
          then
            Alcotest.failf "%s: mask %x" (Format.asprintf "%a" Isa.pp_instr instr)
              mask)
        (e.Suite.build ()).Program.code)
    Suite.all

(* The direct partition against the oracle's pseudo-memory [Defuse]
   partition: experiment classes, in order, and the benign weight. *)
let disagreement (classes, benign_weight) (d : Defuse.t) =
  if classes <> Defuse.experiment_classes d then Some "classes"
  else if benign_weight <> Defuse.known_benign_weight d then
    Some "benign weight"
  else None

(* [of_golden]'s partition against the one the oracle derives from a
   second, traced run of the program. *)
let partition_disagreement (golden : Golden.t) =
  let r = Regspace.of_golden golden in
  disagreement
    (r.Regspace.classes, r.Regspace.benign_weight)
    (Oracle.reg_defuse golden)

let test_suite_partition_matches_two_runs () =
  List.iter
    (fun (e : Suite.entry) ->
      Option.iter
        (Alcotest.failf "%s/%s: %s differ" e.Suite.benchmark
           (Suite.variant_name e.Suite.variant))
        (partition_disagreement (Golden.run (e.Suite.build ()))))
    Suite.all

let qcheck_gen_partition_matches_two_runs =
  QCheck.Test.make
    ~name:"generated-program register classes equal the two-run analysis"
    ~count:40 QCheck.int64 (fun seed ->
      let prog = Gen.program (Prng.create ~seed) in
      match Golden.run ~limit:20_000 (Delta.compile_baseline prog) with
      | exception Golden.Golden_failed _ -> QCheck.assume_fail ()
      | golden -> (
          match partition_disagreement golden with
          | None -> true
          | Some what -> QCheck.Test.fail_reportf "%s differ" what))

(* Synthetic register traces in the [Golden.registers] format: 1 to 40
   cycles (1-cycle runs weighted up), each cycle's reads and writes
   drawn sparse over a per-trace subset of r1–r15, so some registers
   are never touched, while r0's bits are set at random.  Every fourth
   trace also reads and writes one register on its first and its last
   cycle. *)
let gen_masks =
  let open QCheck.Gen in
  let sparse universe =
    map2 (fun a b -> a land b land universe) (int_bound 0xFFFF) (int_bound 0xFFFF)
  in
  let* cycles = frequency [ (1, return 1); (4, int_range 2 40) ] in
  let* universe = map (fun u -> u lor 1) (int_bound 0xFFFF) in
  let* pin = frequency [ (3, return 0); (1, int_range 1 15) ] in
  let+ cycle_masks = array_repeat cycles (pair (sparse universe) (sparse universe)) in
  let masks = Bytes.make (4 * cycles) '\000' in
  Array.iteri
    (fun i (reads, writes) ->
      let edge = pin <> 0 && (i = 0 || i = cycles - 1) in
      let pinned = if edge then 1 lsl pin else 0 in
      Bytes.set_uint16_le masks (4 * i) (reads lor pinned);
      Bytes.set_uint16_le masks ((4 * i) + 2) (writes lor pinned))
    cycle_masks;
  (cycles, masks)

let print_masks (cycles, masks) =
  String.concat " "
    (List.init cycles (fun i ->
         Printf.sprintf "%08x" (Golden.uses_defs masks (i + 1))))

let qcheck_synthetic_masks_match_pseudo_memory =
  QCheck.Test.make
    ~name:"register partition of synthetic traces equals the pseudo-memory"
    ~count:500
    (QCheck.make ~print:print_masks gen_masks)
    (fun (cycles, masks) ->
      match
        disagreement
          (Regspace.partition ~cycles masks)
          (Oracle.reg_defuse_of_masks ~cycles masks)
      with
      | None -> true
      | Some what -> QCheck.Test.fail_reportf "%s differ" what)

(* The cases the generator covers by chance, pinned: r1 read and
   written in one cycle is one experiment ending there; r2 written at
   cycle 1 and read at the last; r3 is never touched; r0's bits count
   for nothing. *)
let test_hand_masks () =
  let cycles = 3 in
  let masks = Bytes.make (4 * cycles) '\000' in
  let set cycle ~reads ~writes =
    Bytes.set_uint16_le masks (4 * (cycle - 1)) reads;
    Bytes.set_uint16_le masks ((4 * (cycle - 1)) + 2) writes
  in
  set 1 ~reads:0b011 ~writes:0b101;
  set 2 ~reads:0b011 ~writes:0b011;
  set 3 ~reads:0b101 ~writes:0b001;
  let classes, benign = Regspace.partition ~cycles masks in
  let interval (c : Defuse.byte_class) =
    (c.Defuse.byte, c.Defuse.t_start, c.Defuse.t_end)
  in
  Alcotest.(check (list (triple int int int)))
    "r1 [1,1] and [2,2], r2 [2,3], one class per byte"
    [ (0, 1, 1); (0, 2, 2); (1, 1, 1); (1, 2, 2); (2, 1, 1); (2, 2, 2);
      (3, 1, 1); (3, 2, 2); (4, 2, 3); (5, 2, 3); (6, 2, 3); (7, 2, 3) ]
    (Array.to_list (Array.map interval classes));
  (* r1's dormant cycle 3, r2's overwritten cycle 1, 13 idle registers *)
  Alcotest.(check int) "benign weight" (32 * (1 + 1 + (13 * cycles))) benign;
  Alcotest.(check bool) "equals the pseudo-memory" true
    (disagreement (classes, benign) (Oracle.reg_defuse_of_masks ~cycles masks)
    = None)

let test_hi_register_space_size () =
  Alcotest.(check int) "w = 8 cycles x 480 bits" (8 * 480)
    (Faultspace.space (Lazy.force hi_cell))

let test_hi_register_classes () =
  let classes = (Lazy.force hi).Regspace.classes in
  (* r1 ('H') read at cycle 1: class [1,1]; r3 (ROM base) read at 2:
     [1,2]; r7 (serial) read at 5 and 7: [1,5] and [6,7]; r2 written at 2
     then read at 3: [3,3]; r4 [5,5]; r5 [7,7]. *)
  (* 7 register-level experiment intervals, each spanning the 4 pseudo-
     bytes of its register => 28 byte-classes, 224 experiments. *)
  Alcotest.(check int) "28 experiment byte-classes" 28 (Array.length classes);
  Alcotest.(check int) "224 experiments" 224
    (Faultspace.experiments (Lazy.force hi_cell));
  (* Spot-check the r1 class: pseudo-byte 0 (register 1, low byte). *)
  let c = classes.(0) in
  Alcotest.(check bool) "r1 low byte is a [1,1] experiment" true
    (c.Defuse.byte = 0 && c.Defuse.t_start = 1 && c.Defuse.t_end = 1
    && c.Defuse.kind = Defuse.Experiment)

let test_coord_of_bit () =
  Alcotest.(check (pair int int)) "first bit" (1, 0) (Regspace.coord_of_bit 0);
  Alcotest.(check (pair int int)) "r1 bit 31" (1, 31) (Regspace.coord_of_bit 31);
  Alcotest.(check (pair int int)) "r2 bit 0" (2, 0) (Regspace.coord_of_bit 32);
  Alcotest.(check (pair int int)) "last" (15, 31) (Regspace.coord_of_bit 479)

let test_hi_register_scan () =
  let scan = Faultspace.scan (Lazy.force hi_cell) in
  Alcotest.(check int) "pseudo ram" 60 scan.Scan.ram_bytes;
  Alcotest.(check int) "w consistent" (8 * 480) (Scan.fault_space_size scan);
  (* Low byte of r1 (the 'H' about to be stored): all 8 bits corrupt the
     output => SDC.  High bytes of r1: sb stores only the low byte =>
     benign. *)
  let outcome_of ~byte ~bit_in_byte =
    let e =
      Array.to_list scan.Scan.experiments
      |> List.find (fun (e : Scan.experiment) ->
             e.Scan.byte = byte && e.Scan.bit_in_byte = bit_in_byte
             && e.Scan.t_end = 1)
    in
    e.Scan.outcome
  in
  for b = 0 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "r1 low bit %d fails" b)
      true
      (Outcome.is_failure (outcome_of ~byte:0 ~bit_in_byte:b))
  done;
  for b = 0 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "r1 high bit %d benign" b)
      true
      (Outcome.is_benign (outcome_of ~byte:3 ~bit_in_byte:b))
  done;
  (* The metrics layer works unchanged on register scans. *)
  let coverage = Metrics.coverage scan in
  Alcotest.(check bool) "coverage within (0,1)" true
    (coverage > 0.0 && coverage < 1.0);
  Alcotest.(check bool) "some failures" true (Metrics.failure_count scan > 0)

let test_register_flip_primitive () =
  let m = Machine.create (Hi.program ()) in
  Machine.flip_reg_bit m ~reg:1 ~bit:0;
  Alcotest.(check int32) "H xor 1 = I"
    (Int32.of_int (Char.code 'I'))
    (Machine.reg m (Isa.reg 1));
  Alcotest.check_raises "r0 rejected"
    (Invalid_argument "Machine.flip_reg_bit: register outside [1,15]")
    (fun () -> Machine.flip_reg_bit m ~reg:0 ~bit:0);
  Alcotest.check_raises "bit 32 rejected"
    (Invalid_argument "Machine.flip_reg_bit: bit outside [0,31]") (fun () ->
      Machine.flip_reg_bit m ~reg:1 ~bit:32)

let test_register_partition_invariant () =
  (* Register def/use classes partition the register fault space for a
     real compiled program. *)
  let golden = Golden.run (Mbox1.baseline ()) in
  let r = Regspace.of_golden golden in
  let total =
    r.Regspace.benign_weight
    + 8 * Array.fold_left (fun acc c -> acc + Defuse.weight c) 0 r.Regspace.classes
  in
  Alcotest.(check int) "weights partition w"
    (Faultspace.space (Faultspace.of_golden Faultspace.Bitflip_reg golden))
    total

(* A bin_sem2/baseline register cell, once the golden run's register
   trace is recorded, allocates at most this many minor words: 51,556
   class records of 5 words each are 257,780 of them, the floor while
   an interval stays four byte classes.  On OCaml 5.1.1 the cell took
   358,507 words through the pseudo-memory trace and [Defuse.analyze],
   257,916 with the direct partition. *)
let reg_cell_minor_words_budget = 300_000

let test_reg_cell_allocation_budget () =
  let golden = Golden.run (Bin_sem2.baseline ()) in
  ignore (Golden.registers golden);
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Faultspace.of_golden Faultspace.Bitflip_reg golden));
  let words = Gc.minor_words () -. w0 in
  if words > float_of_int reg_cell_minor_words_budget then
    Alcotest.failf "a register cell allocated %.0f minor words (budget %d)"
      words reg_cell_minor_words_budget

let test_cross_layer_sizes_differ () =
  (* The Section VI-C setup: same program, two layers, different w. *)
  Alcotest.(check bool) "register w != memory w" true
    (Faultspace.space (Lazy.force hi_cell)
    <> Golden.fault_space_size (Lazy.force hi_golden))

let suite =
  ( "regspace",
    [
      Alcotest.test_case "defs/uses per instruction" `Quick test_defs_uses;
      Alcotest.test_case "suite masks equal the list definition" `Quick
        test_masks_match_lists;
      Alcotest.test_case "suite register classes equal the two-run analysis"
        `Quick test_suite_partition_matches_two_runs;
      QCheck_alcotest.to_alcotest qcheck_gen_partition_matches_two_runs;
      QCheck_alcotest.to_alcotest qcheck_synthetic_masks_match_pseudo_memory;
      Alcotest.test_case "hand-made register trace" `Quick test_hand_masks;
      Alcotest.test_case "hi register space size" `Quick
        test_hi_register_space_size;
      Alcotest.test_case "hi register classes" `Quick test_hi_register_classes;
      Alcotest.test_case "coord_of_bit" `Quick test_coord_of_bit;
      Alcotest.test_case "hi register scan" `Quick test_hi_register_scan;
      Alcotest.test_case "register flip primitive" `Quick
        test_register_flip_primitive;
      Alcotest.test_case "register partition invariant" `Quick
        test_register_partition_invariant;
      Alcotest.test_case "cross-layer sizes differ" `Quick
        test_cross_layer_sizes_differ;
      Alcotest.test_case "a register cell stays within its allocation budget"
        `Quick test_reg_cell_allocation_budget;
    ] )
