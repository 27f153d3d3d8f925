(** The artifact store: one directory holding campaign journals and the
    content-addressed result index [results.idx] ([cell key → finished
    journal]).

    A campaign's default journal lives at a path derived from its
    campaign fingerprint ({!journal_path}), so a [--resume] finds it
    again without any index.  The one index is [results.idx]: a campaign
    cell's key ({!cell_key}) is a stable fingerprint of everything that
    determines its results — program image digest, fault space, and the
    plan-shaping execution policy (experiment limit, shard size,
    weighted sampling).  Any campaign or matrix that reaches a cell
    whose key is already in the store gets the finished journal for
    free; the engine replays it through the same CRC/fingerprint-guarded
    merge path a [--resume] uses, so a cache hit is bit-identical to a
    fresh run by construction.

    The index is append-only, later entries winning, junk lines skipped,
    writers serialised by {!Lockfile}.  Only {e finished, unquarantined}
    journals may be published — the engine enforces that; the store
    just records the mapping. *)

val default_dir : string
(** ["_artifacts"] — the CLI's and benchmark harness's artifact store. *)

val ensure_dir : string -> unit
(** Create [dir] if missing (one level; ignores races and failures —
    callers get a clean error from the subsequent open instead). *)

val journal_path : dir:string -> fingerprint:int -> string
(** The default journal location for a campaign:
    [<dir>/fi-<fingerprint as 8 hex digits>.journal]. *)

val index_path : dir:string -> string
(** [<dir>/results.idx]. *)

val key_length : int
(** Length of every {!cell_key} (32: hex MD5). *)

val cell_key :
  image:string ->
  space:string ->
  limit:int option ->
  shard_size:int option ->
  weighted:bool ->
  string
(** Hex MD5 over a versioned canonical rendering of the cell identity.
    [image] is the program-image digest (hex), [space] the fault-space
    tag.  Supervision and journal-placement policy are deliberately
    excluded: they cannot change results. *)

type entry = {
  key : string;  (** {!cell_key} hex. *)
  fingerprint : int;  (** Campaign CRC-32 the journal must carry. *)
  path : string;  (** The finished journal. *)
}

val entries : dir:string -> entry list
(** All parseable index lines, in file order (missing index = none). *)

val lookup : dir:string -> string -> entry option
(** Latest entry for this key, if any. *)

val publish : dir:string -> key:string -> fingerprint:int -> path:string -> unit
(** Append [key → (fingerprint, path)] under the index lock, creating
    directory and index on first use; a no-op if that mapping is
    already current.  Callers must only publish journals that are
    complete and unquarantined. *)

val referenced : dir:string -> string -> bool
(** Whether a journal is one the index references: the same path as
    an entry's, or the same file under another spelling
    ([./_artifacts/x] and [_artifacts/x]).  Compaction keeps such
    journals — a cache-backed journal IS the cached result. *)
