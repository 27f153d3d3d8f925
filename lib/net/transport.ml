type conn = {
  fd : Unix.file_descr;
  peer : string;
  decoder : Frame.decoder;
  chunk : Bytes.t;
  mutable closed : bool;
}

let fd c = c.fd
let peer c = c.peer

let of_fd ~peer fd =
  { fd; peer; decoder = Frame.decoder (); chunk = Bytes.create 65536;
    closed = false }

let close c =
  if not c.closed then begin
    c.closed <- true;
    (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    Sysio.close_quietly c.fd
  end

let connect ?(timeout = 10.) addr =
  match Addr.sockaddr addr with
  | None -> Error (Printf.sprintf "cannot resolve host %S" addr.Addr.host)
  | Some sa -> (
      let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
      Unix.set_close_on_exec fd;
      (* Connect non-blocking so an unreachable host costs [timeout],
         not the kernel's multi-minute SYN retry budget. *)
      Unix.set_nonblock fd;
      let finish () =
        match Unix.getsockopt_error fd with
        | Some err ->
            Sysio.close_quietly fd;
            Error
              (Printf.sprintf "connect %s: %s" (Addr.to_string addr)
                 (Unix.error_message err))
        | None ->
            Unix.clear_nonblock fd;
            Unix.setsockopt fd Unix.TCP_NODELAY true;
            Ok (of_fd ~peer:(Addr.to_string addr) fd)
      in
      match Unix.connect fd sa with
      | () ->
          Unix.clear_nonblock fd;
          Unix.setsockopt fd Unix.TCP_NODELAY true;
          Ok (of_fd ~peer:(Addr.to_string addr) fd)
      | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EINTR), _, _) -> (
          match Unix.select [] [ fd ] [] timeout with
          | _, [ _ ], _ -> finish ()
          | _ ->
              Sysio.close_quietly fd;
              Error
                (Printf.sprintf "connect %s: timed out after %.1fs"
                   (Addr.to_string addr) timeout)
          | exception Unix.Unix_error (Unix.EINTR, _, _) ->
              Sysio.close_quietly fd;
              Error
                (Printf.sprintf "connect %s: interrupted" (Addr.to_string addr))
          )
      | exception Unix.Unix_error (err, _, _) ->
          Sysio.close_quietly fd;
          Error
            (Printf.sprintf "connect %s: %s" (Addr.to_string addr)
               (Unix.error_message err)))

let listen addr =
  match Addr.sockaddr addr with
  | None -> Error (Printf.sprintf "cannot resolve host %S" addr.Addr.host)
  | Some sa -> (
      let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
      Unix.set_close_on_exec fd;
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      match
        Unix.bind fd sa;
        Unix.listen fd 64
      with
      | () ->
          let port =
            match Unix.getsockname fd with
            | Unix.ADDR_INET (_, p) -> p
            | Unix.ADDR_UNIX _ -> addr.Addr.port
          in
          Ok (fd, { addr with Addr.port })
      | exception Unix.Unix_error (err, _, _) ->
          Sysio.close_quietly fd;
          Error
            (Printf.sprintf "listen %s: %s" (Addr.to_string addr)
               (Unix.error_message err)))

let rec accept listen_fd =
  match Unix.accept ~cloexec:true listen_fd with
  | fd, sa ->
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      let peer =
        match sa with
        | Unix.ADDR_INET (a, p) ->
            Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
        | Unix.ADDR_UNIX p -> p
      in
      of_fd ~peer fd
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept listen_fd

let send c kind payload = Frame.send c.fd kind payload

let recv ?timeout c = Frame.recv ?timeout ~chunk:c.chunk c.fd c.decoder

(* One non-blocking-ish pump for a select loop: a single read of
   whatever is available, then every frame it completed. *)
let pump c =
  match Sysio.read_avail c.fd c.chunk with
  | `Eof -> if Frame.buffered c.decoder > 0 then `Corrupt "EOF inside a frame" else `Eof
  | `Nothing -> `Frames []
  | `Data k -> (
      Frame.feed c.decoder c.chunk 0 k;
      let rec drain acc =
        match Frame.next c.decoder with
        | Some f -> drain (f :: acc)
        | None -> `Frames (List.rev acc)
      in
      try drain [] with Frame.Corrupt msg -> `Corrupt msg)
