(* Test shorthands over the engine's one entry point,
   [Engine.run_matrix_results]. *)

let cell ?backend ?jobs ?observe ?on_event ?secret spec =
  match
    Engine.run_matrix_results ?backend ?jobs ?observe ?on_event ?secret
      [ spec ]
  with
  | [ r ] -> r
  | _ -> assert false

let scan ?backend ?jobs ?observe spec =
  Engine.scan_exn (cell ?backend ?jobs ?observe spec)

let scans ?backend ?jobs ?observe specs =
  List.map Engine.scan_exn
    (Engine.run_matrix_results ?backend ?jobs ?observe specs)
