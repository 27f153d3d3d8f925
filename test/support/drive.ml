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

(* What a worker-backend call must never leave behind: a child process
   still running, or one exited but unreaped.  [None] when there is no
   child at all. *)
let leftover_child () =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None
  | 0, _ -> Some "a child process still running"
  | pid, _ -> Some (Printf.sprintf "child %d exited unreaped" pid)
