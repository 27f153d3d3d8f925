(* Fault-model smoke (the @faultmodel-smoke alias, a CI gate): one tiny
   campaign cell per fault model — mem, reg, burst3, skip — each proven
   to (a) journal and resume from a torn tail bit-identically, and
   (b) round-trip through the content-addressed result cache.  A few
   seconds total; the exhaustive differential/backend matrix lives in
   test_faultspace.ml under @runtest. *)

let models =
  [ Faultspace.Bitflip_mem; Faultspace.Bitflip_reg; Faultspace.burst 3;
    Faultspace.Skip ]

(* A fixed small program, sized so every model yields several shards
   (the Hi fixture's 8 cycles collapse the skip space to one class). *)
let image =
  lazy
    (let open Builder in
     Codegen.compile
       (prog ~name:"smoke"
          [ global "acc" ~init:[ 3 ]; array "buf" 4 ~init:[ 5; 1; 4; 2 ] ]
          [
            func "main" ~locals:[ "i" ]
              (for_ "i" ~from:(i 0) ~below:(i 12)
                 [
                   setg "acc" (g "acc" +: elem "buf" (l "i" %: i 4));
                   set_elem "buf" (l "i" %: i 4) (g "acc" ^: i 29);
                 ]
              @ [ out (g "acc" &: i 255); ret_unit ]);
          ]))

let failures = ref 0

let check tag what ok =
  if not ok then (
    incr failures;
    Printf.printf "FAIL %-8s %s\n%!" tag what)

let with_temp_dir f =
  let dir = Filename.temp_file "fismoke" ".dir" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun name -> Sys.remove (Filename.concat dir name))
           (Sys.readdir dir)
       with Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let with_temp_file f =
  let path = Filename.temp_file "fismoke" ".journal" in
  Fun.protect
    ~finally:(fun () -> (try Sys.remove path with Sys_error _ -> ()))
    (fun () -> f path)

let truncate_journal_to path ~records =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let lines = String.split_on_char '\n' text in
  let kept = List.filteri (fun i _ -> i <= records) lines in
  let oc = open_out_bin path in
  List.iter (fun l -> output_string oc (l ^ "\n")) kept;
  output_string oc "f00dfeed torn-shard-rec";
  close_out oc

let spec_of model policy =
  Spec.of_golden ~policy ~model (Golden.run (Lazy.force image))

let smoke_journal_resume model =
  let tag = Faultspace.tag model in
  with_temp_file (fun path ->
      let policy = Spec.make_policy ~journal:path ~shard_size:3 () in
      let cold = Drive.scan ~jobs:2 (spec_of model policy) in
      check tag "cold run journals to completion"
        (Runcell.journal_finished path);
      check tag "journal records the model tag"
        (Runcell.journal_model_tag path = Some tag);
      let records =
        match Journal.replay path with
        | Some (_, rs, _) -> List.length rs
        | None -> 0
      in
      check tag "journal has shards" (records > 2);
      truncate_journal_to path ~records:(records / 2);
      let resume_policy =
        { policy with
          Spec.durability = { policy.Spec.durability with Spec.resume = true }
        }
      in
      let resumed = Drive.scan ~jobs:2 (spec_of model resume_policy) in
      check tag "torn-tail resume is bit-identical" (cold = resumed);
      check tag "resumed journal finished again" (Runcell.journal_finished path);
      cold)

let smoke_cache_roundtrip model reference =
  let tag = Faultspace.tag model in
  with_temp_dir (fun dir ->
      let policy = Spec.make_policy ~catalogue:dir ~cache:dir () in
      let cold = Drive.cell ~jobs:2 (spec_of model policy) in
      check tag "cold cache run is a miss" (not cold.Engine.cached);
      check tag "cold cache run matches the journaled run"
        (cold.Engine.scan = reference);
      let warm = Drive.cell ~jobs:2 (spec_of model policy) in
      check tag "warm cache run is a hit" warm.Engine.cached;
      check tag "cache hit is bit-identical" (warm.Engine.scan = cold.Engine.scan))

let () =
  Worker.guard ();
  Remote.guard ();
  List.iter
    (fun model ->
      let reference = smoke_journal_resume model in
      smoke_cache_roundtrip model reference;
      Printf.printf "ok %-8s journal+resume+cache round-trip\n%!"
        (Faultspace.tag model))
    models;
  if !failures > 0 then (
    Printf.printf "faultmodel-smoke: %d failure(s)\n%!" !failures;
    exit 1)
  else print_endline "faultmodel-smoke: all models green"
