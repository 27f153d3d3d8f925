let serve_var = "FI_ENGINE_NET_SERVE"

(* Supervision-loop patience for peers that connect but never speak:
   mutable so the torture suite can shrink them (a half-open peer then
   costs half a second, not the production ten). *)
let connect_timeout = ref 10.
let handshake_timeout = ref 10.

(* ------------------------------------------------------------------ *)
(* The wire job                                                       *)
(* ------------------------------------------------------------------ *)

(* Unlike the fork/exec worker's job, nothing here may capture code: the
   peer is another machine, so [Spec.Build] closures cannot cross.  The
   job is the Runcell-level cell description — the assembled program
   image plus the policy fields that shape the shard plan — and the
   worker re-derives everything else (golden run, fault-space classes,
   fingerprint) on its own silicon, refusing on disagreement.  Marshal
   without [Closures] is plain portable data; the handshake's binary
   digest pins both ends to the same executable, which makes the
   marshalling format (and the analysis) agree by construction. *)
type wire_job = {
  benchmark : string;
  variant : string;
  model : Faultspace.model;
  limit : int option;
  shard_size : int option;
  weighted : bool;
  stride : int option;
      (* checkpoint stride — a pure perf knob the peer honours locally;
         deliberately absent from the fingerprint it verifies. *)
  program : Program.t;
  fingerprint : int;
  shard_ids : int array;
  index : int;
}

let wire_magic = "fi-wire v1\n"

let encode_job (job : wire_job) = wire_magic ^ Marshal.to_string job []

let decode_job s =
  let mlen = String.length wire_magic in
  if String.length s <= mlen || String.sub s 0 mlen <> wire_magic then None
  else
    match (Marshal.from_string s mlen : wire_job) with
    | job -> Some job
    | exception _ -> None

let wire_of_spec (spec : Spec.t) ~program ~fingerprint ~shard_ids ~index =
  {
    benchmark = spec.Spec.benchmark;
    variant = spec.Spec.variant;
    model = spec.Spec.model;
    limit = spec.Spec.limit;
    shard_size = spec.Spec.policy.Spec.sharding.Spec.shard_size;
    weighted = spec.Spec.policy.Spec.sharding.Spec.weighted;
    stride = spec.Spec.policy.Spec.acceleration.Spec.checkpoint_stride;
    program;
    fingerprint;
    shard_ids;
    index;
  }

(* Only the plan-shaping policy fields (plus the checkpoint stride, so
   the peer accelerates the same way) cross the wire: journalling,
   resume and supervision belong to the conducting parent. *)
let spec_of_wire (job : wire_job) =
  {
    Spec.benchmark = job.benchmark;
    variant = job.variant;
    model = job.model;
    source = Spec.Build (fun () -> job.program);
    limit = job.limit;
    policy =
      Spec.make_policy ?shard_size:job.shard_size ~weighted:job.weighted
        ?checkpoint_stride:job.stride ();
  }

let program_of_spec (spec : Spec.t) =
  match spec.Spec.source with
  | Spec.Analysed_memory g -> g.Golden.program
  | Spec.Analysed_registers r -> r.Regspace.golden.Golden.program
  | Spec.Build build -> build ()

(* ------------------------------------------------------------------ *)
(* Client side (the conducting engine)                                *)
(* ------------------------------------------------------------------ *)

type client = {
  conn : Transport.conn;
  addr : Addr.t;
  index : int;
  assigned : int array;
}

let shake ?timeout ?secret conn ~fingerprint =
  let timeout = Option.value timeout ~default:!handshake_timeout in
  let mine = Handshake.hello ~fingerprint ?secret () in
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

let probe ?secret addr =
  with_conn addr (fun conn ->
      let r = shake ?secret conn ~fingerprint:"" in
      Transport.close conn;
      r)

(* [patience] caps both the connect and handshake timeouts: the engine
   shortens it when re-dialling a host that already failed once, so a
   dead host costs the supervision loop seconds, not two full default
   timeouts on every backoff round. *)
let dispatch ?patience ?secret ~addr ~fingerprint ~program ~spec ~shard_ids
    ~index () =
  let cap dflt =
    match patience with Some p -> Float.min p dflt | None -> dflt
  in
  with_conn ~timeout:(cap !connect_timeout) addr (fun conn ->
      match
        shake conn
          ~timeout:(cap !handshake_timeout)
          ?secret
          ~fingerprint:(Crc32.to_hex fingerprint)
      with
      | Error _ as e ->
          Transport.close conn;
          e
      | Ok _ ->
          Transport.send conn Frame.Job
            (encode_job
               (wire_of_spec spec ~program ~fingerprint ~shard_ids ~index));
          Ok { conn; addr; index; assigned = shard_ids })

(* ------------------------------------------------------------------ *)
(* Worker side: conducting one connection                             *)
(* ------------------------------------------------------------------ *)

(* The wire sink of the shared worker loop ({!Worker.conduct_job}):
   segment lines travel as [Seg] frames and doorbell lines as [Door]
   frames, and a torn record is a CRC-invalid [Seg] line — the wire
   equivalent of a mid-append crash. *)
let conduct conn (job : wire_job) =
  let seg line = Transport.send conn Frame.Seg line in
  let open_sink header =
    seg (Journal.encode_line header);
    {
      Worker.append = (fun payload -> seg (Journal.encode_line payload));
      door = Transport.send conn Frame.Door;
      tear = (fun () -> seg "deadbeef torn-rec");
      close = ignore;
    }
  in
  Worker.conduct_job open_sink ~spec:(spec_of_wire job)
    ~fingerprint:job.fingerprint ~shard_ids:job.shard_ids ~index:job.index

let serve_connection ~capacity ?secret conn =
  match Transport.recv ~timeout:!handshake_timeout conn with
  | None -> () (* connected, said nothing, left — a port scan *)
  | Some (Frame.Hello, payload) -> (
      let mine = Handshake.hello ~capacity ?secret () in
      (match Handshake.decode payload with
      | None -> failwith "malformed hello"
      | Some theirs -> (
          match Handshake.check ?secret ~mine ~theirs () with
          | Ok () -> ()
          | Error msg ->
              Transport.send conn Frame.Err msg;
              failwith msg));
      Transport.send conn Frame.Hello (Handshake.encode mine);
      match Transport.recv ~timeout:!handshake_timeout conn with
      | None -> () (* a probe: hello exchange only *)
      | Some (Frame.Job, payload) -> (
          match decode_job payload with
          | None -> failwith "undecodable job payload"
          | Some job -> conduct conn job)
      | Some (kind, _) ->
          failwith
            (Printf.sprintf "expected a job frame, got %s"
               (Frame.kind_tag kind)))
  | Some (kind, _) ->
      failwith
        (Printf.sprintf "expected a hello frame, got %s" (Frame.kind_tag kind))

(* ------------------------------------------------------------------ *)
(* The daemon                                                         *)
(* ------------------------------------------------------------------ *)

let announce_line addr ~workers =
  Printf.sprintf "fi-net listening %s workers=%d digest=%s"
    (Addr.to_string addr) workers
    (Handshake.self_digest ())

let parse_announce line =
  match String.split_on_char ' ' line with
  | "fi-net" :: "listening" :: addr :: _ -> (
      match Addr.parse addr with Ok a -> Some a | Error _ -> None)
  | _ -> None

let serve ~listen ~workers ?secret ?(announce = fun _ -> ()) () =
  if workers < 1 then
    invalid_arg (Printf.sprintf "Remote.serve: workers %d" workers);
  match Transport.listen listen with
  | Error msg -> failwith msg
  | Ok (lfd, addr) ->
      ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
      announce (announce_line addr ~workers);
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
      while true do
        reap ~block:false;
        while !live >= workers do
          reap ~block:true
        done;
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
      done

(* ------------------------------------------------------------------ *)
(* Re-exec entry point (tests, bench, and `fi-cli worker serve`)       *)
(* ------------------------------------------------------------------ *)

let guard () =
  match Sys.getenv_opt serve_var with
  | None | Some "" -> ()
  | Some value ->
      (try
         let bad () = failwith (Printf.sprintf "bad %s value %S" serve_var value) in
         let addr, workers, secret_file =
           match String.split_on_char ';' value with
           | [ addr; workers ] -> (addr, workers, None)
           | [ addr; workers; secret ] -> (addr, workers, Some secret)
           | _ -> bad ()
         in
         let secret =
           match secret_file with
           | None -> None
           | Some file -> (
               match Hmac.load_secret file with
               | Ok s -> Some s
               | Error msg -> failwith msg)
         in
         (match (Addr.parse addr, int_of_string_opt workers) with
         | Ok listen, Some workers ->
             (* Lead a fresh process group so killing the daemon
                (group) also takes down its conducting children. *)
             (try ignore (Unix.setsid ()) with Unix.Unix_error _ -> ());
             serve ~listen ~workers ?secret
               ~announce:(fun line ->
                 print_endline line;
                 flush stdout)
               ()
         | _ -> bad ());
         exit 0
       with exn ->
         Printf.eprintf "fi-net daemon (pid %d): %s\n%!" (Unix.getpid ())
           (Printexc.to_string exn);
         exit 3)

let spawn_daemon ?(listen = { Addr.host = "127.0.0.1"; port = 0 }) ~workers
    ?secret_file () =
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let value =
    match secret_file with
    | None -> Printf.sprintf "%s;%d" (Addr.to_string listen) workers
    | Some file ->
        Printf.sprintf "%s;%d;%s" (Addr.to_string listen) workers file
  in
  let env =
    Array.append (Unix.environment ())
      [| Printf.sprintf "%s=%s" serve_var value |]
  in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  (* The hosting binary may print unrelated lines before [guard] runs
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
          match parse_announce line with
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
