(** EINTR/EAGAIN-hardened system-call wrappers.

    The campaign engine's supervision loop and the socket transport both
    live on raw [Unix] descriptors, where a stray signal turns into a
    spurious [EINTR] and a non-blocking peer into [EAGAIN].  Each
    call-site once carried its own retry loop; this module is the single
    shared set (PR 4's hardening sweep, promoted to a library because
    {!Frame}/{!Transport} need the same discipline).

    Only [EINTR]/[EAGAIN] are absorbed.  Real errors propagate — except
    in {!read_avail}, whose callers (supervision loops) treat any hard
    read error as the peer's death notice. *)

val write_all : Unix.file_descr -> string -> int -> int -> unit
(** [write_all fd s off len] writes the whole range, retrying short
    writes and [EINTR].  [EPIPE] propagates (callers supervising workers
    ignore [SIGPIPE] and treat it as a death notice). *)

val write_string : Unix.file_descr -> string -> unit
(** [write_all fd s 0 (String.length s)]. *)

val read_avail : Unix.file_descr -> bytes -> [ `Eof | `Data of int | `Nothing ]
(** One read of whatever is available: [`Data n] bytes at the front of
    [buf], [`Nothing] on [EINTR]/[EAGAIN]/[EWOULDBLOCK] (nothing yet —
    a live peer), [`Eof] on end-of-file {e or any hard error} (the
    peer's death notice; mapping errors to EOF is deliberate — see the
    engine's supervision loop). *)

val select_read : Unix.file_descr list -> float -> Unix.file_descr list
(** [Unix.select] on the read set only; [EINTR] yields [[]] (the caller
    loops anyway). *)

val wait_readable : Unix.file_descr -> float -> bool
(** Block until [fd] is readable or [timeout] seconds pass ([EINTR]
    retried with the remaining budget); [true] iff readable. *)

val close_quietly : Unix.file_descr -> unit
(** [Unix.close], ignoring errors (already-closed descriptors). *)
