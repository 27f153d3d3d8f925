(** The fork/exec worker process of the {!Pool.Processes} backend.

    A worker is this very executable re-exec'd with {!env_var} set: the
    first thing every engine-hosting binary does is call {!guard}, which
    diverts such a process into {!serve} before any other code runs.
    The parent ships one {!job} — a marshalled {!Spec.t} (the [Closures]
    flag relocates [Spec.Build] thunks, valid because parent and child
    are the same binary), the campaign fingerprint, a shard-id range and
    a segment path — down the child's stdin.  The worker re-analyses the
    cell, checks its fingerprint against the parent's (a loud failure if
    the build is nondeterministic), conducts its shards in order, and
    appends each result record to its own CRC-guarded journal {e
    segment} (same record format as the campaign journal, distinct
    [fi-segment v1] header).  After each fsync'd append it writes a
    doorbell line ([s <id>\n]) to stdout, so the parent can merge the
    segment incrementally; EOF on that pipe is the parent's death
    notice, whatever the cause.

    The journal is the only shared state: a worker killed mid-shard
    leaves at most a torn segment tail, which the parent's merge
    ignores, so the shard stays unfinished and [--resume] replays it. *)

val env_var : string
(** ["FI_ENGINE_WORKER"] — set to ["1"] in a worker's environment. *)

val torture_var : string
(** ["FI_ENGINE_TORTURE"] — fault-injection hook for the engine's own
    torture tests: ["MODE:N"] or ["MODE:N:WORKER"] makes a worker (the
    [WORKER]-indexed one, or all) misbehave once it has completed [N]
    shards.  [MODE] is [exit] (exit code 7), [raise] (uncaught
    exception, exit 3), [sigkill] (SIGKILL itself between shards),
    [torn] (append a raw partial record, then SIGKILL — a crash
    mid-append), [hang] (sleep forever: no heartbeat, no progress — only
    a supervision deadline ends it) or [stall] (livelock: heartbeats
    keep flowing but shard progress stops).  [poison:S[:W]] is
    different: [S] is a {e plan shard id}, and the worker SIGKILLs
    itself immediately before conducting that shard — the deterministic
    poison coordinate that exercises shard quarantine, since it follows
    the shard through every retry.  Unset, empty or unparseable values
    inject nothing.  Both worker backends honour it through
    {!conduct_job}; a remote daemon reads its own environment. *)

type job = {
  spec : Spec.t;
  fingerprint : int;  (** Parent's campaign fingerprint; verified. *)
  shard_ids : int array;  (** Plan shard ids to conduct, in order. *)
  segment : string;  (** Journal-segment path to (re)create. *)
  index : int;
      (** Spawn ordinal within the cell (retry workers get fresh
          indices), for diagnostics and [torture] targeting. *)
}

val segment_fingerprint : string -> int option
(** Parse a segment header ([fi-segment v1 fingerprint=<crc32> pid=<n>])
    back to its fingerprint ([None] if the payload is not a segment
    header). *)

(** {1 The shard loop}

    One loop conducts every worker's job, local or remote; only where
    its output goes differs. *)

type sink = {
  append : string -> unit;  (** Durably emit one shard-record payload. *)
  door : string -> unit;
      (** Emit one doorbell line ([h], [s <id>], [end]; no newline). *)
  tear : unit -> unit;
      (** Emit a raw partial record — the [torn] torture mode's crash
          artifact. *)
  close : unit -> unit;  (** Finish the segment (before [end]). *)
}
(** Where a worker's two streams go: a segment file plus the doorbell
    pipe ({!serve}), or [Seg]/[Door] frames on a connection
    ({!Remote}). *)

val conduct_job :
  (string -> sink) ->
  spec:Spec.t ->
  fingerprint:int ->
  shard_ids:int array ->
  index:int ->
  unit
(** [conduct_job open_sink …] is the worker-side loop shared by both
    worker backends: re-analyse the cell and verify the parent's
    [fingerprint], range-check [shard_ids], start the segment with
    [open_sink header], then conduct each shard in order — throttled
    [h] heartbeats while conducting, one record plus an [s <id>]
    doorbell per shard — and finish with [end].  Honours {!torture_var}
    (the [index]-th worker is the [WORKER] target).  Raises on
    fingerprint disagreement or a bad shard id. *)

val serve : input:in_channel -> output:out_channel -> unit
(** The worker main loop: read one job from [input], conduct it, journal
    to the segment, doorbell on [output].  Raises on any protocol or
    fingerprint violation — {!guard} turns that into exit code 3. *)

val guard : unit -> unit
(** Call first in every [main] of a binary that runs campaigns (the CLI,
    the test runners).  If {!env_var} is set, runs {!serve} over
    stdin/stdout and exits (0 on success, 3 on failure) — otherwise
    returns immediately. *)

type child
(** A spawned worker, parent side. *)

val spawn : job -> child
(** Fork/exec [Sys.executable_name] with {!env_var} set and ship it
    [job].  The caller must be ignoring [SIGPIPE] (the engine's
    processes scheduler is): a child that dies before reading its job
    surfaces as a supervision event, not a parent crash. *)

val pid : child -> int
val index : child -> int
val status_fd : child -> Unix.file_descr
(** The doorbell pipe's read end: [h] heartbeat lines while a shard is
    being conducted (one per class, throttled), [s <id>] per completed
    shard, [end] on clean completion, EOF when the child is gone.  The
    caller closes it. *)

val segment : child -> string
val assigned : child -> int array

val wait : child -> Unix.process_status
(** [waitpid] (blocking; call after EOF on {!status_fd} — or after
    {!kill}). *)

val kill : child -> unit
(** SIGKILL the worker (no-op if it is already gone).  The supervisor's
    answer to a blown deadline; follow with {!wait} to reap it. *)
