type backend = Domains | Processes | Sockets of string list

let default_jobs () = Domain.recommended_domain_count ()

let resolve_jobs ?backend ?jobs () =
  match (backend, jobs) with
  (* Remote hosts size themselves: 0 defers to each daemon's advertised
     capacity, anything positive bounds the per-host connection count.
     Local backends have no daemon to defer to, so 0 means all cores. *)
  | Some (Sockets _), (None | Some 0) -> 0
  | (None | Some (Domains | Processes)), (None | Some 0) -> default_jobs ()
  | _, Some j when j >= 1 -> j
  | Some (Sockets _), Some j ->
      invalid_arg
        (Printf.sprintf
           "Pool.resolve_jobs: negative job count %d (use 0 to let each \
            worker daemon decide)"
           j)
  | _, Some j ->
      invalid_arg
        (Printf.sprintf
           "Pool.resolve_jobs: negative job count %d (use 0 for all cores)" j)

let run_inline tasks f =
  for i = 0 to tasks - 1 do
    f i
  done

let run ?deadline ?(on_stall = fun ~stalled_for:_ -> ()) ~jobs ~tasks f =
  if jobs < 1 then invalid_arg (Printf.sprintf "Pool.run: jobs %d" jobs);
  if tasks < 0 then invalid_arg (Printf.sprintf "Pool.run: tasks %d" tasks);
  if jobs = 1 || tasks <= 1 then run_inline tasks f
  else begin
    let next = Atomic.make 0 in
    let completed = Atomic.make 0 in
    let all_done = Atomic.make false in
    let failed = Atomic.make None in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= tasks || Atomic.get failed <> None then continue := false
        else begin
          (try f i
           with exn ->
             let bt = Printexc.get_raw_backtrace () in
             (* Keep the first failure; losing later ones is fine. *)
             ignore (Atomic.compare_and_set failed None (Some (exn, bt)));
             continue := false);
          Atomic.incr completed
        end
      done
    in
    (* The watchdog cannot SIGKILL a domain the way the processes
       scheduler kills a worker — domains share the heap — so a stalled
       pool is {e reported} (once per stall episode), never abandoned:
       we still join every domain. *)
    let monitor =
      match deadline with
      | None -> None
      | Some deadline ->
          Some
            (Domain.spawn (fun () ->
                 let last_count = ref (Atomic.get completed) in
                 let last_change = ref (Unix.gettimeofday ()) in
                 let reported = ref false in
                 while not (Atomic.get all_done) do
                   Unix.sleepf (Float.min 0.05 (deadline /. 4.));
                   let c = Atomic.get completed in
                   let now = Unix.gettimeofday () in
                   if c <> !last_count then begin
                     last_count := c;
                     last_change := now;
                     reported := false
                   end
                   else if
                     (not !reported)
                     && now -. !last_change >= deadline
                     && not (Atomic.get all_done)
                   then begin
                     reported := true;
                     on_stall ~stalled_for:(now -. !last_change)
                   end
                 done))
    in
    let domains =
      List.init (min jobs tasks - 1) (fun _ -> Domain.spawn worker)
    in
    worker ();
    List.iter Domain.join domains;
    Atomic.set all_done true;
    Option.iter Domain.join monitor;
    match Atomic.get failed with
    | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> ()
  end
