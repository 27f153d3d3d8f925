(* Cross-cutting tests: pass composition, cross-layer reporting,
   statistical coverage of the confidence intervals, and assembler
   directives not covered elsewhere. *)

(* ------------------------------------------------------------------ *)
(* Pass composition                                                   *)
(* ------------------------------------------------------------------ *)

let run_prog p =
  let image = Codegen.compile p in
  let m = Machine.create image in
  let reason = Machine.run m ~limit:1_000_000 in
  (Machine.serial_output m, reason)

let composed_source () =
  let open Builder in
  prog ~name:"comp" ~stack:160
    [ array ~protected:true "tbl" 6 ~init:[ 2; 4; 6; 8; 10; 12 ]; global "acc" ]
    ([
       func "use_tbl" ~params:[ "k" ] ~locals:[ "dead" ] ~protects:[ "tbl" ]
         [
           set "dead" (i 3 *: i 9) (* dead store for DSE to find *);
           setg "acc" (g "acc" +: elem "tbl" (l "k" %: i 6));
           ret_unit;
         ];
       func "main" ~locals:[ "k" ]
         (for_ "k" ~from:(i 0) ~below:(i 9) [ call_ "use_tbl" [ l "k" ] ]
         @ [ call_ out_dec [ g "acc" ]; ret_unit ]);
     ]
    @ stdlib)

let test_harden_then_optimize () =
  let p = composed_source () in
  let reference = run_prog p in
  (* Hardening then optimisation must preserve behaviour, and the
     optimiser must not eliminate the protection code (the replica
     stores are global writes, never dead). *)
  let ho = Optimize.optimize (Harden.sum_dmr p) in
  Alcotest.(check bool) "same behaviour" true (run_prog ho = reference);
  Alcotest.(check bool) "protection survives" true
    (Mir.find_func ho "__check_tbl" <> None);
  (* And it still corrects an injected fault. *)
  let image = Codegen.compile ho in
  let addr = Option.get (Program.find_data_symbol image "tbl") in
  let m = Machine.create image in
  Machine.run_until m ~cycle:30;
  Machine.flip_bit m ((addr * 8) + 3);
  let reason = Machine.run m ~limit:1_000_000 in
  Alcotest.(check bool) "halted" true (reason = Machine.Halted);
  Alcotest.(check bool) "corrected" true
    (List.exists
       (fun (_, c) -> Int32.equal c Event_codes.corrected)
       (Machine.detection_events m))

let test_optimize_then_harden () =
  let p = composed_source () in
  let reference = run_prog p in
  let oh = Harden.sum_dmr (Optimize.optimize p) in
  Alcotest.(check bool) "same behaviour" true (run_prog oh = reference)

(* ------------------------------------------------------------------ *)
(* Cross-layer report                                                 *)
(* ------------------------------------------------------------------ *)

let test_cross_layer_report () =
  let text = Figures.cross_layer [ ("hi", Golden.run (Hi.program ())) ] in
  Alcotest.(check bool) "memory row" true
    (Astring_contains.contains text "memory");
  Alcotest.(check bool) "register row" true
    (Astring_contains.contains text "registers");
  (* hi memory layer: the exact Section-IV numbers appear. *)
  Alcotest.(check bool) "62.50%" true (Astring_contains.contains text "62.50%");
  Alcotest.(check bool) "F=48" true (Astring_contains.contains text "48")

(* ------------------------------------------------------------------ *)
(* Confidence-interval coverage (statistical)                         *)
(* ------------------------------------------------------------------ *)

let test_wilson_coverage () =
  (* Simulate Bernoulli(0.3) experiments; the 95% Wilson interval should
     contain the true p in roughly 95% of repetitions. *)
  let rng = Prng.create ~seed:99L in
  let p_true = 0.3 in
  let reps = 400 and trials = 200 in
  let covered = ref 0 in
  for _ = 1 to reps do
    let fails = ref 0 in
    for _ = 1 to trials do
      if Prng.float rng 1.0 < p_true then incr fails
    done;
    let { Confidence.lower; upper } =
      Confidence.wilson ~fails:!fails ~trials ~confidence:0.95
    in
    if lower <= p_true && p_true <= upper then incr covered
  done;
  let rate = float_of_int !covered /. float_of_int reps in
  Alcotest.(check bool)
    (Printf.sprintf "coverage %.3f within [0.90, 0.99]" rate)
    true
    (rate >= 0.90 && rate <= 0.99)

(* ------------------------------------------------------------------ *)
(* Assembler directives                                               *)
(* ------------------------------------------------------------------ *)

let test_assembler_space_and_align () =
  let image =
    Assembler.assemble_exn ~name:"dir"
      {|
      .ram 64
      .data
      a: .byte 1
      .align
      b: .word 7
      c: .space 5
      d: .byte 2
      .text
      main:
          halt
      |}
  in
  Alcotest.(check (option int)) "a at 0" (Some 0)
    (Program.find_data_symbol image "a");
  Alcotest.(check (option int)) "b aligned to 4" (Some 4)
    (Program.find_data_symbol image "b");
  Alcotest.(check (option int)) "c after b" (Some 8)
    (Program.find_data_symbol image "c");
  Alcotest.(check (option int)) "d after space" (Some 13)
    (Program.find_data_symbol image "d")

let test_assembler_rodata_addressing () =
  let image =
    Assembler.assemble_exn ~name:"ro"
      {|
      .rodata
      k1: .word 17
      k2: .word 25
      .text
      main:
          li r1, k2
          lw r2, 0(r1)
          li r3, 0x300000
          addi r2, r2, 48   ; 25+48 = 'I'
          sb r2, 0(r3)
          halt
      |}
  in
  let m = Machine.create image in
  ignore (Machine.run m ~limit:1000);
  Alcotest.(check string) "rodata label resolves into ROM" "I"
    (Machine.serial_output m);
  (* ROM data symbols live above rom_base. *)
  Alcotest.(check bool) "k2 in ROM window" true
    (Option.get (Program.find_data_symbol image "k2") >= Memmap.rom_base)

let test_assembler_negative_immediates () =
  let image =
    Assembler.assemble_exn ~name:"neg"
      {|
      .text
      main:
          li r1, -3
          addi r1, r1, 54    ; 51 = '3'
          li r2, 0x300000
          sb r1, 0(r2)
          halt
      |}
  in
  let m = Machine.create image in
  ignore (Machine.run m ~limit:100);
  Alcotest.(check string) "negative li" "3" (Machine.serial_output m)

(* ------------------------------------------------------------------ *)
(* Shipped assembly programs                                          *)
(* ------------------------------------------------------------------ *)

let run_asm_file path =
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let image = Assembler.assemble_exn ~name:(Filename.basename path) text in
  let m = Machine.create image in
  let reason = Machine.run m ~limit:100_000 in
  Alcotest.(check bool) "halted" true (reason = Machine.Halted);
  Machine.serial_output m

let test_shipped_sort () =
  Alcotest.(check string) "sorted" "12346789\n" (run_asm_file "../asm/sort.s")

let test_shipped_checksum () =
  Alcotest.(check string) "checksum passes" "P049\n"
    (run_asm_file "../asm/checksum.s")

(* ------------------------------------------------------------------ *)
(* Session/restart equivalence on a compiled program                  *)
(* ------------------------------------------------------------------ *)

let qcheck_session_equals_restart =
  QCheck.Test.make ~name:"checkpointed injection equals restart (compiled)"
    ~count:60
    QCheck.(pair (int_bound 10_000) (int_bound 10_000))
    (let cell =
       lazy
         (Faultspace.analyse Faultspace.Bitflip_mem (Mbox1.baseline ~items:3 ()))
     in
     fun (a, b) ->
       let cell = Lazy.force cell in
       let golden = cell.Faultspace.golden in
       let w_cycles = golden.Golden.cycles in
       let w_bits = golden.Golden.program.Program.ram_size * 8 in
       let c1 = 1 + (a mod w_cycles) and c2 = 1 + (b mod w_cycles) in
       let lo, hi = if c1 <= c2 then (c1, c2) else (c2, c1) in
       let bit1 = a mod w_bits and bit2 = b mod w_bits in
       let inject session cycle bit =
         cell.Faultspace.inject session { Faultspace.cycle; bit }
       in
       let alone cycle bit =
         inject (Injector.session (Injector.replay golden)) cycle bit
       in
       let session = Injector.session (Injector.plan ~stride:64 golden) in
       let s1 = inject session lo bit1 in
       let s2 = inject session hi bit2 in
       let r1 = alone lo bit1 in
       let r2 = alone hi bit2 in
       s1 = r1 && s2 = r2)

let suite =
  ( "extensions",
    [
      Alcotest.test_case "harden then optimize" `Quick test_harden_then_optimize;
      Alcotest.test_case "optimize then harden" `Quick test_optimize_then_harden;
      Alcotest.test_case "cross-layer report" `Quick test_cross_layer_report;
      Alcotest.test_case "wilson coverage simulation" `Slow test_wilson_coverage;
      Alcotest.test_case "assembler .space/.align" `Quick
        test_assembler_space_and_align;
      Alcotest.test_case "assembler rodata addressing" `Quick
        test_assembler_rodata_addressing;
      Alcotest.test_case "assembler negative immediates" `Quick
        test_assembler_negative_immediates;
      Alcotest.test_case "shipped sort.s" `Quick test_shipped_sort;
      Alcotest.test_case "shipped checksum.s" `Quick test_shipped_checksum;
      QCheck_alcotest.to_alcotest qcheck_session_equals_restart;
    ] )
