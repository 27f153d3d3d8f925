(* Build your own protected application in MIR, harden it with SUM+DMR
   and TMR, and compare the variants with both the (unsound) coverage
   metric and the paper's objective metric.

     dune exec examples/hardening_comparison.exe

   The application: a tiny sensor-fusion loop.  A calibration table
   (critical, long-lived) converts raw readings; readings are folded into
   a protected running state; the final state is printed. *)

let sensor_app () =
  let open Builder in
  prog ~name:"sensor" ~stack:160
    [
      (* Critical data: marked protected, so hardening passes guard it. *)
      array ~protected:true "calib" 12
        ~init:[ 3; 5; 7; 9; 11; 13; 15; 17; 19; 21; 23; 25 ];
      array ~protected:true "state" 2 ~init:[ 0; 1 ];
      (* Scratch data: unprotected by design. *)
      array "raw" 8 ~init:[ 14; 3; 9; 27; 5; 21; 8; 16 ];
    ]
    ([
       (* All access to the critical objects goes through this function,
          which declares them in [protects] — the hardening passes weave
          a check at entry and a replica update at exit. *)
       func "absorb" ~params:[ "value" ] ~locals:[ "corrected" ]
         ~protects:[ "calib"; "state" ]
         [
           set "corrected"
             (l "value" *: elem "calib" (l "value" %: i 12) &: i 0xFFFF);
           set_elem "state" (i 0) (elem "state" (i 0) +: l "corrected");
           set_elem "state" (i 1)
             ((elem "state" (i 1) *: i 31) +: l "corrected" &: i 0xFFFF);
           ret_unit;
         ];
       func "main" ~locals:[ "k" ]
         (for_ "k" ~from:(i 0) ~below:(i 8)
            [ call_ "absorb" [ elem "raw" (l "k") ] ]
         @ [
             out_str "state ";
             call_ out_dec [ elem "state" (i 0) ];
             out (i 32);
             call_ out_dec [ elem "state" (i 1) ];
             out_str "\n";
             ret_unit;
           ]);
     ]
    @ stdlib)

let campaign name mir_prog =
  let image = Codegen.compile mir_prog in
  let golden = Golden.run image in
  Format.printf "%-14s %a@." name Golden.pp_summary golden;
  Faultspace.(scan ~variant:name (of_golden Bitflip_mem golden))

let () =
  let base_prog = sensor_app () in
  Format.printf "-- the application --@.%a@." Mir.pp_prog base_prog;

  let baseline = campaign "baseline" base_prog in
  let sum_dmr = campaign "sum+dmr" (Harden.sum_dmr base_prog) in
  let tmr = campaign "tmr" (Harden.tmr base_prog) in

  Format.printf "@.-- metrics --@.";
  print_string
    (Figures.ablation
       [ ("baseline", baseline); ("sum+dmr", sum_dmr); ("tmr", tmr) ]);

  Format.printf "@.-- verdicts --@.";
  List.iter
    (fun (name, hardened) ->
      let p = Pitfalls.analyze_pitfall3 ~baseline ~hardened in
      Format.printf "%-8s %a@." name Pitfalls.pp_pitfall3 p)
    [ ("sum+dmr", sum_dmr); ("tmr", tmr) ];

  Format.printf
    "@.Note how coverage always \"improves\" (the hardened fault space is@.\
     diluted by runtime and replica memory), while the absolute failure@.\
     count may go either way — that is exactly Pitfall 3.@."
