(** The journal catalogue: [fingerprint → path] index of campaign
    journals.

    When a spec's policy names a catalogue directory, the engine appends
    one line per closed journal to [<dir>/journals.idx], and a later
    [--resume] {e without} an explicit journal path finds its journal by
    campaign fingerprint instead.  The index is append-only (later
    entries supersede earlier ones for the same fingerprint) and tolerant
    of unparseable lines, in the same spirit as the journal itself. *)

val default_dir : string
(** ["_artifacts"] — the CLI's and benchmark harness's artifact cache. *)

val index_path : dir:string -> string
(** [<dir>/journals.idx]. *)

val ensure_dir : string -> unit
(** Create [dir] if missing (one level; ignores races and failures —
    callers get a clean error from the subsequent open instead). *)

val journal_path : dir:string -> fingerprint:int -> string
(** The default journal location for a campaign:
    [<dir>/fi-<fingerprint-hex>.journal]. *)

val lookup : dir:string -> fingerprint:int -> string option
(** Last catalogued path for this fingerprint, if any (missing index =
    no entries). *)

val record : dir:string -> fingerprint:int -> path:string -> unit
(** Append [fingerprint → path], creating directory and index on first
    use; a no-op if that mapping is already the current one.  The
    check-and-append runs under the index's {!Lockfile} — concurrent
    campaigns on one host (the service's normal case) cannot interleave
    index lines. *)

type compaction = {
  examined : int;  (** Index lines parsed. *)
  kept : int;  (** Entries still in the index afterwards. *)
  folded : int;  (** Finished journals removed (results live in CSV). *)
  superseded : int;  (** Older duplicate entries dropped. *)
  dangling : int;  (** Entries whose journal file no longer exists. *)
}

val compact :
  ?dry_run:bool ->
  ?protect:(string -> bool) ->
  finished:(string -> bool) ->
  dir:string ->
  unit ->
  compaction
(** Fold the catalogue: drop superseded and dangling entries, and for
    every current entry whose journal [finished] judges complete
    (normally {!Runcell.journal_finished} — the campaign's results are
    then reproducible from the CSV store), delete the journal file and
    its entry.  Unfinished journals — including quarantine-degraded
    ones, which [--resume] can still heal — are kept, as is any journal
    [protect] claims (the CLI passes the result cache's
    {!Cache.referenced}: a cache-backed journal IS the cached result —
    deleting it would turn every future hit into a miss).  With
    [dry_run] nothing is deleted or rewritten; the returned summary
    reports what {e would} happen. *)
