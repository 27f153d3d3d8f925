(* Test shorthands over the engine's one entry point,
   [Engine.run_matrix_results]. *)

let cell ?backend ?jobs ?progress ?observe ?on_event ?secret spec =
  match
    Engine.run_matrix_results ?backend ?jobs
      ?progress:(Option.map (fun p _ -> p) progress)
      ?observe ?on_event ?secret [ spec ]
  with
  | [ r ] -> r
  | _ -> assert false

let scan ?backend ?jobs ?progress ?observe spec =
  Engine.scan_exn (cell ?backend ?jobs ?progress ?observe spec)

let scans ?backend ?jobs ?progress ?observe specs =
  List.map Engine.scan_exn
    (Engine.run_matrix_results ?backend ?jobs ?progress ?observe specs)
