(* Advisory whole-file locking over [Unix.lockf], used to serialise
   index appenders: once campaigns run as a service, two writers on one
   host are the normal case, and unserialised appends can interleave
   half-lines.

   The lock lives in a sidecar [<path>.lock] file rather than on the
   index itself: POSIX record locks are dropped when the process closes
   any descriptor of the file, and the writer re-reads the index under
   the lock, so a lock on the index would be released by its own check.
   The sidecar is opened only here. *)

let lock_path path = path ^ ".lock"

let rec lockf_retry fd cmd =
  try Unix.lockf fd cmd 0
  with Unix.Unix_error (Unix.EINTR, _, _) -> lockf_retry fd cmd

let with_lock path f =
  let fd =
    Unix.openfile (lock_path path) [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
  in
  let release () =
    (try lockf_retry fd Unix.F_ULOCK with Unix.Unix_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  (try lockf_retry fd Unix.F_LOCK
   with exn ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise exn);
  match f () with
  | v ->
      release ();
      v
  | exception exn ->
      release ();
      raise exn
