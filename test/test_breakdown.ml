(* Tests for the failure-mass attribution analysis. *)

let test_hi_single_region () =
  (* Hi carries no data symbols: everything lands in one region whose
     mass is the Section-IV F = 48. *)
  let golden = Golden.run (Hi.program ()) in
  let scan = Faultspace.(scan (of_golden Bitflip_mem golden)) in
  match Breakdown.by_region scan golden.Golden.program with
  | [ r ] ->
      Alcotest.(check string) "name" "<all ram>" r.Breakdown.name;
      Alcotest.(check int) "mass = F" 48 r.Breakdown.failure_mass;
      Alcotest.(check int) "extent" 2 r.Breakdown.bytes
  | rs -> Alcotest.failf "expected one region, got %d" (List.length rs)

let fixture () =
  let open Builder in
  prog ~name:"bd" ~stack:96
    [
      (* Read at the very end: long lifetime, fails. *)
      array "hot" 2 ~init:[ 11; 22 ];
      (* Written every iteration, never read: benign. *)
      array "cold" 2;
    ]
    ([
       func "main" ~locals:[ "k" ]
         (for_ "k" ~from:(Builder.i 0) ~below:(Builder.i 6)
            [ set_elem "cold" (l "k" %: Builder.i 2) (l "k") ]
         @ [
             call_ out_dec [ elem "hot" (Builder.i 0) +: elem "hot" (Builder.i 1) ];
             ret_unit;
           ]);
     ]
    @ stdlib)

let test_attribution () =
  let image = Codegen.compile (fixture ()) in
  let golden = Golden.run image in
  let scan = Faultspace.(scan (of_golden Bitflip_mem golden)) in
  let regions = Breakdown.by_region scan image in
  let find name =
    List.find (fun r -> r.Breakdown.name = name) regions
  in
  let hot = find "hot" and cold = find "cold" and stack = find "<stack>" in
  Alcotest.(check bool) "hot data fails" true (hot.Breakdown.failure_mass > 0);
  Alcotest.(check int) "write-only data is benign" 0 cold.Breakdown.failure_mass;
  Alcotest.(check bool) "stack region present" true (stack.Breakdown.bytes > 0);
  (* Masses never exceed the scan total. *)
  let total =
    List.fold_left (fun acc r -> acc + r.Breakdown.failure_mass) 0 regions
  in
  Alcotest.(check int) "regions partition F" (Metrics.failure_count scan) total

let test_sorted_output () =
  let image = Codegen.compile (fixture ()) in
  let scan = Faultspace.(scan (of_golden Bitflip_mem (Golden.run image))) in
  let masses =
    List.map (fun r -> r.Breakdown.failure_mass) (Breakdown.by_region scan image)
  in
  Alcotest.(check (list int)) "descending" (List.sort (fun a b -> compare b a) masses) masses

let test_render () =
  let image = Codegen.compile (fixture ()) in
  let scan = Faultspace.(scan (of_golden Bitflip_mem (Golden.run image))) in
  let text = Figures.breakdown scan image in
  Alcotest.(check bool) "mentions hot" true (Astring_contains.contains text "hot");
  Alcotest.(check bool) "mentions stack" true
    (Astring_contains.contains text "<stack>")

let test_stack_sentinel_positions () =
  let image = Codegen.compile (fixture ()) in
  (* hot(8B) + cold(8B) => __stack at 16. *)
  Alcotest.(check (option int)) "sentinel" (Some 16)
    (Program.find_data_symbol image "__stack")

let suite =
  ( "breakdown",
    [
      Alcotest.test_case "hi single region" `Quick test_hi_single_region;
      Alcotest.test_case "attribution" `Quick test_attribution;
      Alcotest.test_case "sorted output" `Quick test_sorted_output;
      Alcotest.test_case "render" `Quick test_render;
      Alcotest.test_case "stack sentinel" `Quick test_stack_sentinel_positions;
    ] )
