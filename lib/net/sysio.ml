let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

let write_string fd s = write_all fd s 0 (String.length s)

let read_avail fd buf =
  match Unix.read fd buf 0 (Bytes.length buf) with
  | 0 -> `Eof
  | k -> `Data k
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Nothing
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      `Nothing
  | exception Unix.Unix_error _ -> `Eof

let select_read fds timeout =
  match Unix.select fds [] [] timeout with
  | readable, _, _ -> readable
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

let rec wait_readable fd timeout =
  let t0 = Unix.gettimeofday () in
  match Unix.select [ fd ] [] [] timeout with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      let left = timeout -. (Unix.gettimeofday () -. t0) in
      if left <= 0. then false else wait_readable fd left

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()
