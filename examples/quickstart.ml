(* Quickstart: assemble a small program, run it, and measure its
   susceptibility to soft errors with a full pruned FI campaign.

     dune exec examples/quickstart.exe *)

let source =
  {|
  ; Sum the numbers 1..10 held in RAM, then print the total.
  .ram 96
  .data
  numbers: .word 1 2 3 4 5 6 7 8 9 10
  total:   .word 0
  .text
  main:
      li   r1, 10        ; counter
      li   r2, numbers   ; cursor
  loop:
      lw   r3, 0(r2)
      lw   r4, total
      add  r4, r4, r3
      sw   r4, total
      addi r2, r2, 4
      subi r1, r1, 1
      bne  r1, r0, loop
      ; print the total (two digits) and a newline
      lw   r4, total
      divui r5, r4, 10
      addi r5, r5, 48
      li   r6, 0x300000  ; serial port
      sb   r5, 0(r6)
      remui r5, r4, 10
      addi r5, r5, 48
      sb   r5, 0(r6)
      li   r5, 10
      sb   r5, 0(r6)
      halt
  |}

let () =
  (* 1. Assemble. *)
  let image = Assembler.assemble_exn ~name:"quickstart" source in

  (* 2. Run it normally and observe the serial output. *)
  let machine = Machine.create image in
  let stop = Machine.run machine ~limit:100_000 in
  Format.printf "run: %a, output %S after %d cycles@." Machine.pp_stop_reason
    stop
    (Machine.serial_output machine)
    (Machine.cycle machine);

  (* 3. Golden run: traces every RAM access and partitions the fault
     space into def/use equivalence classes. *)
  let golden = Golden.run image in
  Format.printf "%a@." Golden.pp_summary golden;

  (* 4. Full pruned campaign: one injection per class and bit. *)
  let scan = Faultspace.(scan (of_golden Bitflip_mem golden)) in

  (* 5. Metrics — weighted (correct) and unweighted (Pitfall 1). *)
  Format.printf "fault coverage (weighted)   : %.2f%%@."
    (100.0 *. Metrics.coverage scan);
  Format.printf "fault coverage (unweighted) : %.2f%%   <- Pitfall 1@."
    (100.0 *. Metrics.coverage ~policy:Accounting.pitfall1 scan);
  Format.printf "absolute failures (weighted): %d bit-cycles@."
    (Metrics.failure_count scan);
  Format.printf "P(Failure) per run          : %.3e@."
    (Metrics.failure_probability scan);
  Format.printf "outcomes:@.";
  List.iter
    (fun (o, n) -> Format.printf "  %-18s %8d@." (Outcome.to_string o) n)
    (Metrics.outcome_histogram scan)
