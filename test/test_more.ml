(* Additional depth: fuzzing the decoder, differential ALU testing at
   machine level, def/use lookup consistency, sampler agreement, CSV of
   register scans, and the sampled figure generator. *)

(* ------------------------------------------------------------------ *)
(* Decoder fuzzing                                                    *)
(* ------------------------------------------------------------------ *)

let qcheck_decode_total =
  QCheck.Test.make ~name:"decode never raises on arbitrary words"
    ~count:5000
    QCheck.(map Int32.of_int int)
    (fun w ->
      match Encoding.decode w with
      | Ok instr -> (
          (* Whatever decodes must re-encode to something decodable. *)
          match Encoding.encode instr with
          | Ok _ -> true
          | Error _ -> Encoding.encodable instr = false)
      | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Machine-level ALU differential                                     *)
(* ------------------------------------------------------------------ *)

let machine_alu op a b =
  let r = Isa.reg in
  let p =
    Program.make ~name:"alu"
      ~code:[| Isa.Alu (op, r 3, r 1, r 2); Isa.Halt |]
      ~reg_init:[ (r 1, a); (r 2, b) ]
      ~ram_size:16 ()
  in
  let m = Machine.create p in
  match Machine.run m ~limit:10 with
  | Machine.Halted -> Some (Machine.reg m (r 3))
  | Machine.Trapped Machine.Division_by_zero -> None
  | _ -> Some 0xDEADl

let reference_alu op a b =
  let open Int32 in
  let sh = to_int (logand b 31l) in
  match (op : Isa.alu_op) with
  | Isa.Add -> Some (add a b)
  | Isa.Sub -> Some (sub a b)
  | Isa.Mul -> Some (mul a b)
  | Isa.Divu -> if equal b 0l then None else Some (unsigned_div a b)
  | Isa.Remu -> if equal b 0l then None else Some (unsigned_rem a b)
  | Isa.And -> Some (logand a b)
  | Isa.Or -> Some (logor a b)
  | Isa.Xor -> Some (logxor a b)
  | Isa.Shl -> Some (shift_left a sh)
  | Isa.Shr -> Some (shift_right_logical a sh)
  | Isa.Sar -> Some (shift_right a sh)
  | Isa.Slt -> Some (if compare a b < 0 then 1l else 0l)
  | Isa.Sltu -> Some (if unsigned_compare a b < 0 then 1l else 0l)

let qcheck_machine_alu =
  QCheck.Test.make ~name:"machine ALU matches Int32 reference" ~count:800
    (QCheck.make
       QCheck.Gen.(
         triple
           (oneofl
              [ Isa.Add; Isa.Sub; Isa.Mul; Isa.Divu; Isa.Remu; Isa.And;
                Isa.Or; Isa.Xor; Isa.Shl; Isa.Shr; Isa.Sar; Isa.Slt;
                Isa.Sltu ])
           (map Int32.of_int int) (map Int32.of_int int)))
    (fun (op, a, b) -> machine_alu op a b = reference_alu op a b)

(* ------------------------------------------------------------------ *)
(* Def/use: binary-search lookup equals linear scan                   *)
(* ------------------------------------------------------------------ *)

let qcheck_find_equals_linear =
  QCheck.Test.make ~name:"Defuse.find equals linear scan" ~count:100
    QCheck.(pair (int_bound 10_000) (int_bound 10_000))
    (let golden = lazy (Golden.run (Hi.dft' ())) in
     fun (a, b) ->
       let d = (Lazy.force golden).Golden.defuse in
       let cycle = 1 + (a mod Defuse.total_cycles d) in
       let byte = b mod Defuse.ram_size d in
       let found = Defuse.find d ~cycle ~byte in
       let linear =
         Array.to_list (Defuse.classes d)
         |> List.find (fun (c : Defuse.byte_class) ->
                c.Defuse.byte = byte && c.Defuse.t_start <= cycle
                && cycle <= c.Defuse.t_end)
       in
       found = linear)

(* ------------------------------------------------------------------ *)
(* Samplers agree on the failure fraction                             *)
(* ------------------------------------------------------------------ *)

let test_samplers_agree () =
  (* uniform_raw and uniform_effective estimate the same F (the former
     via the failure fraction of w, the latter via w'). *)
  let golden = Golden.run (Mbox1.baseline ~items:4 ()) in
  let scan = Faultspace.(scan (of_golden Bitflip_mem golden)) in
  let truth = float_of_int (Metrics.failure_count scan) in
  let cell = Faultspace.of_golden Faultspace.Bitflip_mem golden in
  let est_raw =
    Sampler.(conduct cell (uniform_raw (Prng.create ~seed:4L) ~samples:20_000 cell))
  in
  let est_eff =
    Sampler.(
      conduct cell (uniform_effective (Prng.create ~seed:5L) ~samples:20_000 cell))
  in
  let f_raw = Metrics.extrapolated_failures est_raw in
  let f_eff = Metrics.extrapolated_failures est_eff in
  let close a = Float.abs (a -. truth) /. truth < 0.15 in
  Alcotest.(check bool)
    (Printf.sprintf "raw %.0f near truth %.0f" f_raw truth)
    true (close f_raw);
  Alcotest.(check bool)
    (Printf.sprintf "effective %.0f near truth %.0f" f_eff truth)
    true (close f_eff);
  (* The effective sampler conducts no experiments for benign classes,
     so its estimate has lower variance per conducted experiment; at
     minimum its population is smaller. *)
  Alcotest.(check bool) "w' < w" true
    (est_eff.Sampler.population < est_raw.Sampler.population)

(* ------------------------------------------------------------------ *)
(* Register scans through CSV                                         *)
(* ------------------------------------------------------------------ *)

let test_register_scan_csv () =
  let scan = Faultspace.(scan (analyse Bitflip_reg (Hi.program ()))) in
  match Csv_io.of_string (Csv_io.to_string scan) with
  | Error e -> Alcotest.fail e
  | Ok scan' ->
      Alcotest.(check int) "F preserved"
        (Metrics.failure_count scan)
        (Metrics.failure_count scan');
      Alcotest.(check int) "pseudo-ram preserved" 60 scan'.Scan.ram_bytes

(* ------------------------------------------------------------------ *)
(* Sampled figure generator                                           *)
(* ------------------------------------------------------------------ *)

let test_figure2_sampled () =
  (* The real (small) mbox1 pair: each draw is read from its cell's
     scan. *)
  let scanned variant image =
    let cell = Faultspace.analyse Faultspace.Bitflip_mem image in
    (cell, Faultspace.scan ~variant cell)
  in
  let text =
    Figures.figure2_sampled ~samples:2000
      [ ("mbox1", scanned "baseline" (Mbox1.baseline ()),
         scanned "sum+dmr" (Mbox1.sum_dmr ())) ]
  in
  Alcotest.(check bool) "has CI column" true
    (Astring_contains.contains text "95% CI");
  Alcotest.(check bool) "both variants" true
    (Astring_contains.contains text "mbox1/baseline"
    && Astring_contains.contains text "mbox1/sum+dmr")

(* ------------------------------------------------------------------ *)
(* Dilution invariants as properties                                  *)
(* ------------------------------------------------------------------ *)

let qcheck_dilution_never_changes_f =
  QCheck.Test.make ~name:"NOP dilution never changes F" ~count:8
    QCheck.(int_bound 12)
    (fun nops ->
      let base = Golden.run (Hi.program ()) in
      let diluted = Golden.run (Hi.dft ~nops ()) in
      let f golden =
        Metrics.failure_count Faultspace.(scan (of_golden Bitflip_mem golden))
      in
      let f_base = f base and f_diluted = f diluted in
      f_base = f_diluted
      && Golden.fault_space_size diluted
         = Golden.fault_space_size base + (nops * 16))

let qcheck_memory_dilution_inflates_coverage =
  QCheck.Test.make ~name:"memory padding monotonically inflates coverage"
    ~count:6
    QCheck.(int_bound 8)
    (fun extra ->
      let bytes = extra + 1 in
      let base = Faultspace.(scan (analyse Bitflip_mem (Hi.program ()))) in
      let padded =
        Faultspace.(scan (analyse Bitflip_mem (Hi.dft_memory ~bytes ())))
      in
      Metrics.coverage padded > Metrics.coverage base
      && Metrics.failure_count padded = Metrics.failure_count base)

(* ------------------------------------------------------------------ *)
(* Machine: MMIO reads, word store to serial                          *)
(* ------------------------------------------------------------------ *)

let test_mmio_read_is_zero () =
  let r = Isa.reg in
  let p =
    Program.make ~name:"mmio"
      ~code:
        [|
          Isa.Li (r 1, Int32.of_int Memmap.serial_port);
          Isa.Lb (r 2, r 1, 0l);
          Isa.Halt;
        |]
      ~reg_init:[ (r 2, 77l) ]
      ~ram_size:16 ()
  in
  let m = Machine.create p in
  ignore (Machine.run m ~limit:10);
  Alcotest.(check int32) "mmio reads as zero" 0l (Machine.reg m (r 2))

let test_serial_word_store () =
  let r = Isa.reg in
  let p =
    Program.make ~name:"ser"
      ~code:
        [|
          Isa.Li (r 1, Int32.of_int Memmap.serial_port);
          Isa.Li (r 2, 0x4241l) (* 'A' in the low byte *);
          Isa.Sw (r 2, r 1, 0l);
          Isa.Halt;
        |]
      ~ram_size:16 ()
  in
  let m = Machine.create p in
  ignore (Machine.run m ~limit:10);
  Alcotest.(check string) "low byte only" "A" (Machine.serial_output m)

let suite =
  ( "more",
    [
      QCheck_alcotest.to_alcotest qcheck_decode_total;
      QCheck_alcotest.to_alcotest qcheck_machine_alu;
      QCheck_alcotest.to_alcotest qcheck_find_equals_linear;
      Alcotest.test_case "samplers agree" `Slow test_samplers_agree;
      Alcotest.test_case "register scan through CSV" `Quick
        test_register_scan_csv;
      Alcotest.test_case "sampled figure 2" `Slow test_figure2_sampled;
      QCheck_alcotest.to_alcotest qcheck_dilution_never_changes_f;
      QCheck_alcotest.to_alcotest qcheck_memory_dilution_inflates_coverage;
      Alcotest.test_case "mmio reads zero" `Quick test_mmio_read_is_zero;
      Alcotest.test_case "serial word store" `Quick test_serial_word_store;
    ] )
