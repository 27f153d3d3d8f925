(* Supervision-loop patience for peers that connect but never speak:
   mutable so the torture suite can shrink them (a half-open peer then
   costs half a second, not the production ten). *)
let connect_timeout = ref 10.
let handshake_timeout = ref 10.

(* ------------------------------------------------------------------ *)
(* Client side (the conducting engine)                                *)
(* ------------------------------------------------------------------ *)

let shake ?timeout ?secret conn =
  let timeout = Option.value timeout ~default:!handshake_timeout in
  let mine = Handshake.hello ?secret () in
  Transport.send conn Frame.Hello (Handshake.encode mine);
  match Transport.recv ~timeout conn with
  | None -> Error "connection closed during handshake"
  | Some (Frame.Err, msg) -> Error (Printf.sprintf "peer refused: %s" msg)
  | Some (Frame.Hello, payload) -> (
      match Handshake.decode payload with
      | None -> Error "peer sent a malformed hello"
      | Some theirs -> (
          match Handshake.check ?secret ~mine ~theirs () with
          | Ok () -> Ok theirs
          | Error _ as e -> e))
  | Some (kind, _) ->
      Error
        (Printf.sprintf "peer sent a %s frame instead of a hello"
           (Frame.kind_tag kind))

let with_conn ?timeout addr f =
  let timeout = Option.value timeout ~default:!connect_timeout in
  match Transport.connect ~timeout addr with
  | Error _ as e -> e
  | Ok conn -> (
      match f conn with
      | r -> r
      | exception Frame.Corrupt msg ->
          Transport.close conn;
          Error msg
      | exception Unix.Unix_error (err, _, _) ->
          Transport.close conn;
          Error (Unix.error_message err))

let with_peer ?secret addr f =
  with_conn addr (fun conn ->
      Fun.protect
        ~finally:(fun () -> Transport.close conn)
        (fun () -> Result.bind (shake ?secret conn) (f conn)))

let probe ?secret addr = with_peer ?secret addr (fun _ theirs -> Ok theirs)

(* [patience] caps both the connect and handshake timeouts: the engine
   shortens it when re-dialling a host that already failed once, so a
   dead host costs the supervision loop seconds, not two full default
   timeouts on every backoff round. *)
let dial ?patience ?secret addr =
  let cap dflt =
    match patience with Some p -> Float.min p dflt | None -> dflt
  in
  with_conn ~timeout:(cap !connect_timeout) addr (fun conn ->
      match shake conn ~timeout:(cap !handshake_timeout) ?secret with
      | Error _ as e ->
          Transport.close conn;
          e
      | Ok _ -> Ok conn)

(* ------------------------------------------------------------------ *)
(* Server side: the hello answer and one conducted connection         *)
(* ------------------------------------------------------------------ *)

let answer_hello ?capacity ?secret conn payload =
  let mine = Handshake.hello ?capacity ?secret () in
  let verdict =
    match Handshake.decode payload with
    | None -> Error "malformed hello"
    | Some theirs -> Handshake.check ?secret ~mine ~theirs ()
  in
  (match verdict with
  | Ok () -> Transport.send conn Frame.Hello (Handshake.encode mine)
  | Error msg -> Transport.send conn Frame.Err msg);
  verdict

let serve_connection ~capacity ?secret conn =
  match Transport.recv ~timeout:!handshake_timeout conn with
  | None -> () (* connected, said nothing, left — a port scan *)
  | Some (Frame.Hello, payload) -> (
      match answer_hello ~capacity ?secret conn payload with
      | Error msg -> failwith msg
      | Ok () -> Worker.serve_jobs ~timeout:!handshake_timeout conn)
  | Some (kind, _) ->
      failwith
        (Printf.sprintf "expected a hello frame, got %s" (Frame.kind_tag kind))

(* ------------------------------------------------------------------ *)
(* The daemon                                                         *)
(* ------------------------------------------------------------------ *)

let listen_announce ~prefix ?(tags = []) ~announce listen =
  match Transport.listen listen with
  | Error msg -> failwith msg
  | Ok (lfd, addr) ->
      (* A vanished peer must surface as EPIPE, not kill the daemon. *)
      ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
      announce
        (String.concat " "
           ((prefix :: "listening" :: Addr.to_string addr :: tags)
           @ [ "digest=" ^ Handshake.self_digest () ]));
      lfd

let secret_of_file =
  Option.map (fun file ->
      match Hmac.load_secret file with Ok s -> s | Error msg -> failwith msg)

let parse_announce ~prefix line =
  match String.split_on_char ' ' line with
  | p :: "listening" :: addr :: _ when p = prefix ->
      Result.to_option (Addr.parse addr)
  | _ -> None

let serve ~listen ~workers ?secret ?(announce = fun _ -> ()) () =
  if workers < 1 then
    invalid_arg (Printf.sprintf "Remote.serve: workers %d" workers);
  let lfd =
    listen_announce ~prefix:"fi-net"
      ~tags:[ Printf.sprintf "workers=%d" workers ]
      ~announce listen
  in
  let live = ref 0 in
  (* Non-blocking: drain every already-exited child.  Blocking:
     return after reaping ONE child — a single freed seat must
     unblock accept immediately (the caller's [while !live >=
     workers] re-checks), not wait for the whole wave to finish. *)
  let reap ~block =
    let flags = if block then [] else [ Unix.WNOHANG ] in
    let continue = ref (!live > 0) in
    while !continue do
      match Unix.waitpid flags (-1) with
      | 0, _ -> continue := false
      | _ ->
          decr live;
          if block || !live = 0 then continue := false
      | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
          live := 0;
          continue := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  in
  (* Reap on every wake, not only before an accept: an idle daemon
     would otherwise keep its finished children as zombies until the
     next connection. *)
  while true do
    reap ~block:false;
    while !live >= workers do
      reap ~block:true
    done;
    if Sysio.select_read [ lfd ] 1.0 <> [] then begin
      let conn = Transport.accept lfd in
      match Unix.fork () with
      | 0 ->
          Sysio.close_quietly lfd;
          (try
             serve_connection ~capacity:workers ?secret conn;
             Transport.close conn;
             exit 0
           with exn ->
             (try
                Transport.send conn Frame.Err (Printexc.to_string exn);
                Transport.close conn
              with _ -> ());
             Printf.eprintf "fi-net worker (pid %d): %s\n%!"
               (Unix.getpid ()) (Printexc.to_string exn);
             exit 3)
      | _pid ->
          incr live;
          (* Close the parent's copy only — no shutdown, the child owns
             the connection. *)
          Sysio.close_quietly (Transport.fd conn)
    end
  done

(* ------------------------------------------------------------------ *)
(* Re-exec harness (tests, bench) for this daemon and the service's   *)
(* ------------------------------------------------------------------ *)

type 'config daemon = {
  var : string;
  prefix : string;
  run : 'config -> announce:(string -> unit) -> unit;
}

(* The configuration crosses the exec in [d.var], codec-encoded and
   [String.escaped] so the marshalled bytes survive the environment. *)
let config_codec d = Worker.codec (d.var ^ " v1\n")

let daemon_guard d =
  match Sys.getenv_opt d.var with
  | None | Some "" -> ()
  | Some value ->
      (try
         (match Worker.decode (config_codec d) (Scanf.unescaped value) with
         | None -> failwith (Printf.sprintf "bad %s value" d.var)
         | Some config ->
             (* Lead a fresh process group so killing the daemon (group)
                also takes down its children. *)
             (try ignore (Unix.setsid ()) with Unix.Unix_error _ -> ());
             d.run config ~announce:(fun line ->
                 print_endline line;
                 flush stdout));
         exit 0
       with exn ->
         Printf.eprintf "%s daemon (pid %d): %s\n%!" d.prefix (Unix.getpid ())
           (Printexc.to_string exn);
         exit 3)

let spawn_daemon d config =
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let value = String.escaped (Worker.encode (config_codec d) config) in
  let env =
    Array.append (Unix.environment ())
      [| Printf.sprintf "%s=%s" d.var value |]
  in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  (* The hosting binary may print unrelated lines before its guard runs
     (module initialisers — test registration, banners).  Skip until the
     announce line, within reason.  Leave the channel open afterwards:
     closing it would close the pipe and could SIGPIPE a chatty daemon;
     the descriptor dies with us. *)
  let rec await budget last =
    if budget = 0 then
      Error (Printf.sprintf "daemon announced %S instead of an address" last)
    else
      match input_line ic with
      | line -> (
          match parse_announce ~prefix:d.prefix line with
          | Some addr -> Ok (pid, addr)
          | None -> await (budget - 1) line)
      | exception End_of_file ->
          ignore (Unix.waitpid [] pid);
          Error "daemon exited before announcing its address"
  in
  await 64 "<nothing>"

let kill_daemon pid =
  (try Unix.kill (-pid) Sys.sigkill
   with Unix.Unix_error _ -> (
     try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()));
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

type config = {
  listen : Addr.t;
  workers : int;
  secret_file : string option;
}

let default_config =
  { listen = { Addr.host = "127.0.0.1"; port = 0 }; workers = 1; secret_file = None }

let daemon =
  {
    var = "FI_ENGINE_NET_SERVE";
    prefix = "fi-net";
    run =
      (fun c ~announce ->
        serve ~listen:c.listen ~workers:c.workers
          ?secret:(secret_of_file c.secret_file) ~announce ());
  }

let guard () = daemon_guard daemon
