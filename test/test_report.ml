(* Tests for the reporting layer: tables, bar charts, fault-space maps
   and the figure generators. *)

let contains = Astring_contains.contains

(* ------------------------------------------------------------------ *)
(* Table                                                              *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let t =
    Table.create
      ~columns:[ ("name", Table.Left); ("value", Table.Right) ]
  in
  Table.row t [ "alpha"; "1" ];
  Table.row t [ "b"; "22" ];
  let text = Table.render t in
  Alcotest.(check bool) "header" true (contains text "name");
  (* Right-aligned numbers end in the same column. *)
  let lines = String.split_on_char '\n' text in
  let data = List.filteri (fun i _ -> i >= 2) lines in
  match List.filter (fun l -> String.trim l <> "") data with
  | [ l1; l2 ] ->
      Alcotest.(check int) "aligned" (String.length l1) (String.length l2)
  | _ -> Alcotest.fail "unexpected table shape"

let test_table_arity () =
  let t = Table.create ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "arity"
    (Invalid_argument "Table.row: wrong number of cells") (fun () ->
      Table.row t [ "x"; "y" ])

let test_table_rule () =
  let t = Table.create ~columns:[ ("a", Table.Left) ] in
  Table.row t [ "1" ];
  Table.rule t;
  Table.row t [ "2" ];
  let lines = String.split_on_char '\n' (Table.render t) in
  Alcotest.(check bool) "has extra rule" true
    (List.length (List.filter (fun l -> l <> "" && String.for_all (( = ) '-') l) lines) >= 2)

(* ------------------------------------------------------------------ *)
(* Bar chart                                                          *)
(* ------------------------------------------------------------------ *)

let test_barchart () =
  let text = Barchart.render ~width:10 [ ("a", 10.0); ("bb", 5.0) ] in
  Alcotest.(check bool) "max bar full" true (contains text "##########");
  Alcotest.(check bool) "half bar" true (contains text "#####");
  Alcotest.(check bool) "labels" true (contains text "bb")

let test_barchart_zero () =
  let text = Barchart.render [ ("a", 0.0) ] in
  Alcotest.(check bool) "no bars" true (not (contains text "#"))

(* ------------------------------------------------------------------ *)
(* Fault maps                                                         *)
(* ------------------------------------------------------------------ *)

let hi_golden = lazy (Golden.run (Hi.program ()))

let count_char c s = String.fold_left (fun n x -> if x = c then n + 1 else n) 0 s

let test_access_map () =
  let map = Faultmap.access_map_golden (Lazy.force hi_golden) in
  (* Per byte: one W marks 8 rows, one R marks 8 rows. *)
  Alcotest.(check int) "W marks" 16 (count_char 'W' map);
  Alcotest.(check int) "R marks" 16 (count_char 'R' map);
  Alcotest.(check int) "16 bit rows" 16 (count_char '\n' map - 1)

let test_outcome_map () =
  let golden = Lazy.force hi_golden in
  let scan = Scan.pruned golden in
  let map = Faultmap.outcome_map golden scan in
  (* Failing coordinates excluding the R/W event columns: each byte's
     experiment interval spans 3 cycles of which one is the R event
     itself, so 2 x 8 bits x 2 bytes = 32 'X' cells are drawn. *)
  Alcotest.(check int) "X cells" 32 (count_char 'X' map);
  Alcotest.(check int) "no benign experiment cells on hi" 0 (count_char 'o' map)

(* ------------------------------------------------------------------ *)
(* Figures                                                            *)
(* ------------------------------------------------------------------ *)

let test_table1 () =
  let text = Figures.table1 () in
  Alcotest.(check bool) "rate" true (contains text "0.057");
  Alcotest.(check bool) "k column" true (contains text "P(k faults)");
  Alcotest.(check bool) "negligible multi-fault" true (contains text ">=2")

let test_figure1 () =
  let text = Figures.figure1 () in
  Alcotest.(check bool) "weight 7 class" true (contains text "7");
  Alcotest.(check bool) "8 experiments" true (contains text "experiments after pruning: 8")

let test_figure3 () =
  let text = Figures.figure3 () in
  Alcotest.(check bool) "baseline coverage" true (contains text "62.5");
  Alcotest.(check bool) "diluted coverage" true (contains text "75.0");
  Alcotest.(check bool) "failure count constant" true (contains text "F = 48")

let test_pruning_stats () =
  let text = Figures.pruning_stats [ ("hi", Lazy.force hi_golden) ] in
  Alcotest.(check bool) "row present" true (contains text "hi");
  Alcotest.(check bool) "raw size" true (contains text "128")

let test_pitfall2_figure () =
  let golden = Lazy.force hi_golden in
  let scan = Scan.pruned golden in
  let text = Figures.pitfall2 ~samples:1024 scan golden in
  Alcotest.(check bool) "truth column" true (contains text "0.37500");
  Alcotest.(check bool) "biased converges to 1" true (contains text "1.00000")

let test_pitfall3_figure () =
  let golden = Lazy.force hi_golden in
  let scan = Scan.pruned golden in
  let dft_g = Golden.run (Hi.dft ()) in
  let dft_s = Scan.pruned ~variant:"dft" dft_g in
  let text =
    Figures.pitfall3_extrapolation
      [ ("hi", scan, golden); ("hi+dft", dft_s, dft_g) ]
  in
  Alcotest.(check bool) "full-scan column" true (contains text "48")

let test_figure2_renders () =
  (* figure2 only needs scans; use hi and its dilution as a cheap pair. *)
  let sb = Scan.pruned (Lazy.force hi_golden) in
  let sh = Scan.pruned ~variant:"sum+dmr" (Golden.run (Hi.dft ())) in
  let text = Figures.figure2 [ ("hi", sb, sh) ] in
  Alcotest.(check bool) "panel a" true (contains text "(a) fault coverage");
  Alcotest.(check bool) "panel e" true (contains text "(e) absolute failure");
  Alcotest.(check bool) "panel g" true (contains text "runtime");
  Alcotest.(check bool) "misleading flagged" true (contains text "MISLEADING")

let test_ablation () =
  let scan = Scan.pruned (Lazy.force hi_golden) in
  let text = Figures.ablation [ ("hi", scan) ] in
  Alcotest.(check bool) "has MWTF column" true (contains text "MWTF")

let suite =
  ( "report",
    [
      Alcotest.test_case "table render" `Quick test_table_render;
      Alcotest.test_case "table arity" `Quick test_table_arity;
      Alcotest.test_case "table rule" `Quick test_table_rule;
      Alcotest.test_case "barchart" `Quick test_barchart;
      Alcotest.test_case "barchart zero" `Quick test_barchart_zero;
      Alcotest.test_case "access map" `Quick test_access_map;
      Alcotest.test_case "outcome map" `Quick test_outcome_map;
      Alcotest.test_case "table 1" `Quick test_table1;
      Alcotest.test_case "figure 1" `Quick test_figure1;
      Alcotest.test_case "figure 3" `Quick test_figure3;
      Alcotest.test_case "pruning stats" `Quick test_pruning_stats;
      Alcotest.test_case "pitfall 2 figure" `Quick test_pitfall2_figure;
      Alcotest.test_case "pitfall 3 figure" `Quick test_pitfall3_figure;
      Alcotest.test_case "figure 2 renders" `Quick test_figure2_renders;
      Alcotest.test_case "ablation" `Quick test_ablation;
    ] )
