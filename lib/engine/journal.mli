(** Append-only, CRC-guarded campaign journal.

    The durability layer of the campaign engine: one line per record,
    each record a [crc32(payload)] in hex, a space, and the payload
    (which must not contain newlines).  Every append is a single
    [write(2)] followed by [fsync(2)], so after a crash the file is a
    valid record sequence plus at most one torn tail line.

    {!replay} accepts exactly that: it returns the longest valid prefix
    of records, ignores anything after the first malformed or
    CRC-mismatching line, and classifies {e why} the prefix ended
    ({!recovery}), which is what lets the engine tell a
    crash artifact (torn tail — resumable) from storage corruption
    (a complete line with a bad CRC — rejected loudly rather than
    silently skewing weighted tallies).  {!open_resume} is the resume
    gate: it refuses a corrupt journal untouched, and otherwise truncates
    the file back to the valid prefix so that subsequent appends never
    merge into a torn tail.

    The journal is format-agnostic — payload syntax belongs to the
    caller ({!Engine} stores one header record and one record per
    completed shard; {!Worker}s send a header line and the same shard
    records, line by line, in [Seg] frames). *)

type writer

val create : string -> header:string -> writer
(** [create path ~header] creates [path] as a new file and appends the
    [header] payload as the first record (fsync'd, like every record).
    A regular file already at [path] is unlinked first, never truncated:
    a reader holding the old journal open keeps reading it whole. *)

val append : writer -> string -> unit
(** Append one record and fsync.
    @raise Invalid_argument if the payload contains a newline. *)

val close : writer -> unit

val encode_line : string -> string
(** Render one payload as a journal line (CRC hex, space, payload; no
    trailing newline) — the inverse of {!decode_line}.  Exposed for
    workers, which stream journal-format lines in {!Frame.Seg} frames.
    @raise Invalid_argument if the payload contains a newline. *)

val decode_line : string -> string option
(** Decode one journal line (without its newline) to its payload; [None]
    if the line is malformed or its CRC does not match.  Exposed for the
    engine, which checks every [Seg] line a worker sends. *)

type recovery =
  | Clean  (** Every byte of the file is a valid record. *)
  | Torn_tail of int
      (** The last line has no terminating newline ([n] bytes dropped) —
          the expected artifact of a crashed append; safe to resume. *)
  | Corrupt_record of { line : int }
      (** A {e complete} line (1-based [line]) fails its CRC.  A single
          sequential writer cannot produce this by crashing — the
          storage lied.  The engine refuses to resume such a journal. *)

val replay : string -> (string * string list * recovery) option
(** [replay path] is [Some (header, records, recovery)] — the first
    record, the remaining valid prefix, and how that prefix ended — or
    [None] if the file is missing, empty or its header record is torn.
    Read-only.  The result-store consult accepts only a [Clean]
    journal. *)

val open_resume : string -> ((writer * string * string list) option, int) result
(** The resume gate, in one read of the file.  [Ok (Some (w, header,
    records))] is {!replay}'s result plus a writer positioned at the end
    of the valid prefix — the file is truncated there first, so a torn
    tail never merges into the next append.  [Ok None] means no journal:
    the file is missing, empty or its header record is torn or fails its
    CRC.  [Error line] reports a {e complete} record at 1-based [line]
    that fails its CRC ({!Corrupt_record}); the file is left untouched,
    so the evidence survives the refusal. *)
