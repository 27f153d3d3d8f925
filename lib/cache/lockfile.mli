(** Advisory whole-file locks ([Unix.lockf]) for index writers.

    The lock is a sidecar [<path>.lock] file, not the index itself: a
    [lockf] lock is released when its process closes {e any} descriptor
    of the locked file, and a writer re-reads the index under the lock
    (open, read, close), which would drop a lock taken on the index.
    Locks are per-process (lockf semantics): this serialises processes,
    which is the concurrency the service introduces. *)

val lock_path : string -> string
(** [path ^ ".lock"] — the sidecar the lock is taken on. *)

val with_lock : string -> (unit -> 'a) -> 'a
(** [with_lock path f] runs [f] holding an exclusive advisory lock
    keyed to [path] (blocking until free), releasing on return or
    exception.  Creates the sidecar on first use. *)
