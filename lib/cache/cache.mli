(** The artifact store: one directory holding campaign journals and
    the content-addressed result entries, one file per cell key
    ([<key>.result → finished journal]).

    A campaign's default journal lives at a path derived from its
    campaign fingerprint ({!journal_path}), so a [--resume] finds it
    again without any index.  A campaign cell's key ({!cell_key}) is a
    stable fingerprint of everything that determines its results —
    program image digest, fault space, and the plan-shaping execution
    policy (experiment limit, shard size, weighted sampling).  Any
    campaign or matrix that reaches a cell whose key has an entry gets
    the finished journal for free; the engine replays it through the
    same CRC/fingerprint-guarded merge path a [--resume] uses, so a
    cache hit is bit-identical to a fresh run by construction.

    An entry is written whole to a temporary file in the store and
    renamed over [<key>.result]: rename is atomic, so concurrent
    publishers need no lock (the last one wins) and a reader sees a
    whole entry or none.  Only {e finished, unquarantined} journals may
    be published — the engine enforces that; the store just records the
    mapping. *)

val default_dir : string
(** ["_artifacts"] — the CLI's and benchmark harness's artifact store. *)

val ensure_dir : string -> unit
(** Create [dir] if missing (one level; ignores races and failures —
    callers get a clean error from the subsequent open instead). *)

val journal_path : dir:string -> fingerprint:int -> string
(** The default journal location for a campaign:
    [<dir>/fi-<fingerprint as 8 hex digits>.journal]. *)

val entry_path : dir:string -> string -> string
(** [entry_path ~dir key] is [<dir>/<key>.result], the file holding
    [key]'s entry: one line, the journal's campaign fingerprint as 8
    hex digits, a space, and the journal path. *)

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
(** Every parseable entry whose file stem is a key, sorted by key
    (missing directory = none).  Other files, such as a crashed
    publisher's temporary file, are skipped. *)

val lookup : dir:string -> string -> entry option
(** The entry for this key; a missing, empty or unparseable entry file
    is a miss. *)

val publish : dir:string -> key:string -> fingerprint:int -> path:string -> unit
(** Make [key → (fingerprint, path)] the key's entry, creating the
    directory on first use and replacing any earlier entry atomically.
    Callers must only publish journals that are complete and
    unquarantined. *)

val referenced : dir:string -> string -> bool
(** Whether a journal is one an entry references: the same path as
    an entry's, or the same file under another spelling
    ([./_artifacts/x] and [_artifacts/x]).  Compaction keeps such
    journals — a cache-backed journal IS the cached result. *)
