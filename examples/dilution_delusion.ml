(* The "dilution delusion" of Section IV, step by step: an obviously
   useless program transformation (prepending NOPs) inflates the
   fault-coverage metric while the program's actual susceptibility —
   its absolute failure count — is unchanged.

     dune exec examples/dilution_delusion.exe *)

let campaign name image =
  let golden = Golden.run image in
  let scan = Faultspace.(scan ~variant:name (of_golden Bitflip_mem golden)) in
  (name, golden, scan)

let () =
  let variants =
    [
      campaign "baseline" (Hi.program ());
      (* "Dilution Fault Tolerance": 4 NOPs prepended. *)
      campaign "DFT" (Hi.dft ());
      (* DFT': dilution loads, so the added coordinates count even under
         the count-only-activated-faults repair. *)
      campaign "DFT'" (Hi.dft' ());
      (* The space-dimension variant: 2 unused RAM bytes. *)
      campaign "DFT-mem" (Hi.dft_memory ());
    ]
  in

  Format.printf "The Hi program and its \"hardened\" dilution variants:@.@.";
  List.iter
    (fun (name, golden, scan) ->
      Format.printf
        "%-9s dt=%2d cycles, dm=%d bytes, w=%3d | coverage %.1f%% | F = %d | \
         output %S@."
        name scan.Scan.cycles scan.Scan.ram_bytes
        (Scan.fault_space_size scan)
        (100.0 *. Metrics.coverage scan)
        (Metrics.failure_count scan)
        golden.Golden.output)
    variants;

  (* The fault-space maps make the trick visible: the failing region is
     identical, only benign space is added around it. *)
  List.iter
    (fun (name, golden, scan) ->
      Format.printf "@.%s:@.%s" name (Faultmap.outcome_map golden scan))
    variants;
  Format.printf "@.%s@." Faultmap.legend;

  (* The verdicts: coverage is fooled, absolute failure counts are not. *)
  let _, _, base = List.hd variants in
  List.iter
    (fun (name, _, hardened) ->
      if hardened != base then begin
        let p = Pitfalls.analyze_pitfall3 ~baseline:base ~hardened in
        Format.printf "baseline vs %-8s %a@." name Pitfalls.pp_pitfall3 p
      end)
    variants;

  Format.printf
    "@.Conclusion (Section IV): with fault spaces of different sizes the@.\
     coverage percentages are not relative to a common base; only the@.\
     extrapolated absolute failure count is a valid comparison metric.@."
