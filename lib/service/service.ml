(* A submission is a list of {!Worker.wire_cell}s — descriptions, never
   closures — and the reply is each cell's label with its
   {!Engine.result}; both cross in the worker's codec. *)
let submission : Worker.wire_cell list Worker.codec = Worker.codec "fi-svc v1\n"

let results : (string * Engine.result) list Worker.codec =
  Worker.codec "fi-res v1\n"

(* Consulted once, in the daemon loop, so a fully cached submission is
   served immediately, bypassing both the admission queue and the
   worker fleet. *)
let fully_cached ~dir cells =
  List.for_all (fun c -> Cache.lookup ~dir (Worker.cell_key c) <> None) cells

(* ------------------------------------------------------------------ *)
(* Daemon configuration                                               *)
(* ------------------------------------------------------------------ *)

type config = {
  listen : string;  (** HOST:PORT, port 0 = kernel-assigned. *)
  workers : string list;  (** Remote fleet; [[]] = run locally. *)
  local_backend : Pool.backend;
  jobs : int;
  window : int;  (** {!Fairq} admission window, per client host. *)
  artifacts : string;
      (** Artifact store: journals and one [<key>.result] entry file
          per cached cell. *)
  secret_file : string option;
}

let default_config =
  {
    listen = "127.0.0.1:0";
    workers = [];
    local_backend = Pool.Domains;
    jobs = 0;
    window = 4;
    artifacts = Cache.default_dir;
    secret_file = None;
  }

let backend_of_config cfg =
  match (cfg.workers, cfg.local_backend) with
  | [], Pool.Sockets _ ->
      failwith
        "the service's local backend is domains or processes; a fleet goes \
         in its workers"
  | [], local -> local
  | hosts, _ -> Pool.Sockets hosts

(* ------------------------------------------------------------------ *)
(* The runner child                                                   *)
(* ------------------------------------------------------------------ *)

(* One forked child per admitted job.  It inherits the client's
   connection and streams progress and the final result straight to the
   submitter; the parent loop never blocks on a campaign.  A client that
   disconnects mid-run turns the child's sends into EPIPE — swallowed
   (SIGPIPE is ignored daemon-wide), so the campaign still finishes and
   its cells are still published to the result store for the next
   submitter. *)
let run_job ~cfg ~secret ~backend conn cells =
  let policy =
    Spec.make_policy ~catalogue:cfg.artifacts ~cache:cfg.artifacts
      ~max_retries:2 ~quarantine:true ()
  in
  let specs = List.map (Worker.spec_of_cell ~policy) cells in
  let lost = ref false in
  let say kind payload =
    if not !lost then
      try Transport.send conn kind payload
      with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
      -> lost := true
  in
  match
    Engine.run_matrix_results ~backend ~jobs:cfg.jobs
      ~observe:
        (Progress.throttled (fun snap -> say Frame.Prog (Progress.render snap)))
      ~on_event:(fun msg -> say Frame.Stat (Printf.sprintf "supervision %s" msg))
      ?secret specs
  with
  | rs ->
      say Frame.Res
        (Worker.encode results (List.combine (List.map Spec.label specs) rs))
  | exception exn -> say Frame.Err (Printexc.to_string exn)

(* ------------------------------------------------------------------ *)
(* The daemon                                                         *)
(* ------------------------------------------------------------------ *)

(* Parent-side state for one connected client. *)
type session = {
  s_conn : Transport.conn;
  s_host : string;  (** Fairness key: the peer's host part. *)
  s_since : float;  (** Accept time: the hello is due within the timeout. *)
  mutable s_greeted : bool;  (** Its hello passed {!Remote.answer_hello}. *)
  mutable s_submitted : bool;  (** One job per connection. *)
  mutable s_running : bool;  (** A runner child owns the reply stream. *)
}

let host_of_peer peer =
  match String.rindex_opt peer ':' with
  | Some i -> String.sub peer 0 i
  | None -> peer

let serve ?(config = default_config) ?(announce = fun _ -> ()) () =
  let cfg = config in
  let secret = Remote.secret_of_file cfg.secret_file in
  let fleet_backend = backend_of_config cfg in
  let lfd =
    Remote.listen_announce ~prefix:"fi-svc" ~announce
      (Addr.parse_exn cfg.listen)
  in
  Cache.ensure_dir cfg.artifacts;
  let sessions : (Unix.file_descr, session) Hashtbl.t = Hashtbl.create 8 in
  let queue : (session * Worker.wire_cell list) Fairq.t =
    Fairq.create ~window:cfg.window
  in
  (* The fleet (or the local pool) conducts one campaign at a time:
     queued jobs wait their fair turn.  Cache-hit jobs fork
     immediately and don't occupy the seat. *)
  let fleet_pid = ref None in
  let drop s =
    Hashtbl.remove sessions (Transport.fd s.s_conn);
    Transport.close s.s_conn
  in
  (* After forking a runner the parent parks the session: the child
     owns the reply stream; the parent only watches for EOF so a
     vanished client is cleaned up promptly. *)
  let reap () =
    let rec go () =
      match Unix.waitpid [ Unix.WNOHANG ] (-1) with
      | 0, _ -> ()
      | pid, _ ->
          if !fleet_pid = Some pid then fleet_pid := None;
          go ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ()
  in
  let fork_runner s ~backend cells =
    match Unix.fork () with
    | 0 ->
        Sysio.close_quietly lfd;
        Hashtbl.iter
          (fun fd _ ->
            if fd <> Transport.fd s.s_conn then Sysio.close_quietly fd)
          sessions;
        (try run_job ~cfg ~secret ~backend s.s_conn cells
         with exn ->
           Printf.eprintf "fi-svc runner (pid %d): %s\n%!" (Unix.getpid ())
             (Printexc.to_string exn));
        exit 0
    | pid ->
        s.s_running <- true;
        pid
  in
  let status_line () =
    Printf.sprintf
      "fi-svc status clients=%d queued=%d busy=%b cached-cells=%d window=%d"
      (Hashtbl.length sessions) (Fairq.pending queue)
      (!fleet_pid <> None)
      (List.length (Cache.entries ~dir:cfg.artifacts))
      cfg.window
  in
  let handle_submit s payload =
    match Worker.decode submission payload with
    | None ->
        Transport.send s.s_conn Frame.Err "undecodable submission payload";
        drop s
    | Some [] ->
        Transport.send s.s_conn Frame.Err "empty submission";
        drop s
    | Some _ when s.s_submitted ->
        Transport.send s.s_conn Frame.Err
          "one submission per connection — reconnect for the next job"
    | Some cells ->
        s.s_submitted <- true;
        (* Routed once, here: the runner conducts on the backend this
           decision picked, whatever the store says by then. *)
        if fully_cached ~dir:cfg.artifacts cells then begin
          (* Cache hit: serve instantly, off-queue, fleet untouched —
             the engine's consult runs under a local backend, so a
             busy (or absent) fleet cannot delay a hit. *)
          Transport.send s.s_conn Frame.Stat "cache-hit serving";
          ignore (fork_runner s ~backend:Pool.Domains cells : int)
        end
        else (
          match Fairq.admit queue ~client:s.s_host (s, cells) with
          | Ok depth ->
              Transport.send s.s_conn Frame.Stat
                (Printf.sprintf "queued depth=%d" depth)
          | Error msg ->
              Transport.send s.s_conn Frame.Err msg;
              drop s)
  in
  (* A session's first frame must be its hello, answered here in the
     loop: a client that connects and stays silent costs one idle
     session until its handshake deadline, never a blocked loop. *)
  let handle_frame s (kind, payload) =
    match kind with
    | Frame.Hello when not s.s_greeted -> (
        match Remote.answer_hello ?secret s.s_conn payload with
        | Ok () -> s.s_greeted <- true
        | Error _ -> drop s)
    | _ when not s.s_greeted ->
        Transport.send s.s_conn Frame.Err
          (Printf.sprintf "expected a hello frame, got %s"
             (Frame.kind_tag kind));
        drop s
    | Frame.Submit -> handle_submit s payload
    | Frame.Stat -> Transport.send s.s_conn Frame.Stat (status_line ())
    | Frame.Hello -> () (* tolerated: re-hello is a no-op *)
    | Frame.Job | Frame.Door | Frame.Seg | Frame.Err | Frame.Prog
    | Frame.Res ->
        Transport.send s.s_conn Frame.Err
          (Printf.sprintf "unexpected %s frame" (Frame.kind_tag kind));
        drop s
  in
  let accept_one () =
    let conn = Transport.accept lfd in
    Hashtbl.replace sessions (Transport.fd conn)
      {
        s_conn = conn;
        s_host = host_of_peer (Transport.peer conn);
        s_since = Unix.gettimeofday ();
        s_greeted = false;
        s_submitted = false;
        s_running = false;
      }
  in
  while true do
    reap ();
    (* One fleet campaign at a time; pop the next fair job. *)
    (if !fleet_pid = None then
       match Fairq.take queue with
       | Some (_, (s, cells)) ->
           fleet_pid := Some (fork_runner s ~backend:fleet_backend cells)
       | None -> ());
    let fds =
      lfd
      :: Hashtbl.fold
           (fun fd s acc -> if s.s_running then acc else fd :: acc)
           sessions []
    in
    let ready = Sysio.select_read fds 0.2 in
    List.iter
      (fun fd ->
        if fd = lfd then accept_one ()
        else
          match Hashtbl.find_opt sessions fd with
          | None -> ()
          | Some s -> (
              match Transport.pump s.s_conn with
              | `Eof | `Corrupt _ -> drop s
              | `Frames frames -> (
                  (* A frame may drop the session; ignore the rest. *)
                  try
                    List.iter
                      (fun f ->
                        if Hashtbl.mem sessions fd then handle_frame s f)
                      frames
                  with Unix.Unix_error _ -> drop s)))
      ready;
    (* Sessions whose runner finished linger only until EOF; poll
       them cheaply so a completed client that closed its end is
       released.  A session still silent at its handshake deadline
       is dropped. *)
    let now = Unix.gettimeofday () in
    Hashtbl.iter
      (fun fd s ->
        if (not s.s_greeted) && now -. s.s_since > !Remote.handshake_timeout
        then drop s
        else if s.s_running then
          match Sysio.select_read [ fd ] 0. with
          | [ _ ] -> (
              match Transport.pump s.s_conn with
              | `Eof | `Corrupt _ -> drop s
              | `Frames _ -> ())
          | _ -> ())
      (Hashtbl.copy sessions)
  done

(* ------------------------------------------------------------------ *)
(* Re-exec entry point                                                *)
(* ------------------------------------------------------------------ *)

let daemon =
  {
    Remote.var = "FI_ENGINE_SVC_SERVE";
    prefix = "fi-svc";
    run = (fun config ~announce -> serve ~config ~announce ());
  }

let guard () = Remote.daemon_guard daemon

(* ------------------------------------------------------------------ *)
(* Thin clients (fi-cli submit / status)                              *)
(* ------------------------------------------------------------------ *)

let submit ?secret ?(on_progress = fun _ -> ()) ~addr cells =
  Remote.with_peer ?secret addr (fun conn _ ->
      Transport.send conn Frame.Submit (Worker.encode submission cells);
      let rec await () =
        match Transport.recv conn with
        | None -> Error "service closed the connection before a result"
        | Some (Frame.Stat, line) | Some (Frame.Prog, line) ->
            on_progress line;
            await ()
        | Some (Frame.Res, payload) -> (
            match Worker.decode results payload with
            | Some rs -> Ok rs
            | None -> Error "undecodable result payload")
        | Some (Frame.Err, msg) -> Error (Printf.sprintf "service refused: %s" msg)
        | Some (kind, _) ->
            Error
              (Printf.sprintf "service sent an unexpected %s frame"
                 (Frame.kind_tag kind))
      in
      await ())

let status ?secret ~addr () =
  Remote.with_peer ?secret addr (fun conn _ ->
      Transport.send conn Frame.Stat "";
      match Transport.recv ~timeout:!Remote.handshake_timeout conn with
      | Some (Frame.Stat, line) -> Ok line
      | Some (Frame.Err, msg) -> Error (Printf.sprintf "service refused: %s" msg)
      | Some (kind, _) ->
          Error
            (Printf.sprintf "service sent an unexpected %s frame"
               (Frame.kind_tag kind))
      | None -> Error "service closed the connection")
