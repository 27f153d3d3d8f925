(** The campaign worker: the one protocol every worker speaks, local or
    remote, and the local (fork/exec) way to start one.

    A worker reads {!wire_job}s in [Job] frames until EOF — each a
    {!wire_cell} (program image and plan-shaping policy fields) plus the
    dispatch fields (campaign fingerprint, shard ids), marshalled
    {e without} [Closures] — re-analyses a cell when it differs from the
    previous job's, refuses if its own fingerprint disagrees with the
    conductor's, and conducts each job's shards in order.  Everything
    it says goes back as frames on the same {!Transport.conn}: [Seg]
    frames carry journal-format lines (the [fi-segment v1] header first,
    then one CRC-guarded shard record per shard) and [Door] frames carry
    doorbell lines ([h] heartbeat, [s <id>] per completed shard, [end]
    on clean completion).  EOF on the connection is the parent's death
    notice, whatever the cause.

    A local worker ({!Pool.Processes}) is this very executable re-exec'd
    with {!env_var} set and one end of a Unix socketpair as its stdin:
    the first thing every engine-hosting binary does is call {!guard},
    which diverts such a process into {!serve_jobs} before any other code
    runs.  A remote worker ({!Remote}) runs the same {!serve_jobs} after
    the handshake.  Nothing is written to disk: the parent's campaign
    journal is the only durable state, and a worker killed mid-shard
    costs exactly its unfinished shards. *)

val env_var : string
(** ["FI_ENGINE_WORKER"] — set to ["1"] in a local worker's
    environment. *)

val torture_var : string
(** ["FI_ENGINE_TORTURE"] — fault-injection hook for the engine's own
    torture tests: ["MODE:N"] or ["MODE:N:WORKER"] makes a worker (the
    [WORKER]-indexed one, or all) misbehave once it has completed [N]
    shards in its lifetime (checked before each shard and at EOF).
    [MODE] is [exit] (exit code 7), [raise] (uncaught exception, exit
    3), [sigkill] (SIGKILL itself between shards), [torn] (send a
    CRC-invalid [Seg] line, then SIGKILL — a crash mid-record), [hang]
    (sleep forever: no heartbeat, no progress — only a supervision
    deadline ends it) or [stall] (livelock: heartbeats keep flowing but
    shard progress stops).  [poison:S[:W]] is
    different: [S] is a {e plan shard id}, and the worker SIGKILLs
    itself immediately before conducting that shard — the deterministic
    poison coordinate that exercises shard quarantine, since it follows
    the shard through every retry.  Unset, empty or unparseable values
    inject nothing.  Local and remote workers honour it alike in
    {!serve_jobs}; a remote daemon reads its own environment. *)

(** {1 Wire cell and wire job} *)

type wire_cell = {
  benchmark : string;
  variant : string;
  model : Faultspace.model;
  limit : int option;
  shard_size : int option;
  weighted : bool;
  program : Program.t;  (** The assembled image — plain data. *)
}
(** One campaign cell as it crosses a process or host boundary: the
    program image plus the plan-shaping spec fields, never a closure.
    Execution policy (journalling, supervision, caching) belongs to the
    receiver.  A worker job carries one; a campaign-service submission
    is a list of them. *)

type wire_job = {
  cell : wire_cell;
  stride : int option;
      (** The conductor's checkpoint stride, honoured by the worker so
          both ends accelerate identically.  A pure perf knob — not part
          of the fingerprint the worker verifies (outcomes are
          bit-identical at any stride). *)
  fingerprint : int;  (** Conductor's campaign fingerprint; verified. *)
  shard_ids : int array;  (** Plan shard ids to conduct, in order. *)
  index : int;
      (** The worker's start ordinal within the engine call (a
          replacement gets a fresh one), for diagnostics and [torture]
          targeting. *)
}
(** One dispatch: a wire cell plus the fields that say which of its
    shards to conduct, and how. *)

type 'a codec
(** A versioned wire format for ['a]: a magic line, then [Marshal]
    {e without} [Closures] — sound because both ends are the same
    binary (by construction locally, by {!Handshake.check} remotely). *)

val codec : string -> 'a codec
(** [codec magic]: bind each magic string to exactly one type. *)

val encode : 'a codec -> 'a -> string

val decode : 'a codec -> string -> 'a option
(** [None] on a wrong magic or a truncated or garbled payload. *)

val job_codec : wire_job codec
(** The [fi-wire v1] job format. *)

val cell_of_spec : ?program:Program.t -> Spec.t -> wire_cell
(** Flatten a spec into its wire cell.  [program] is the image the
    caller has already built; without it a [Spec.Build] source is
    built here. *)

val spec_of_cell : policy:Spec.policy -> wire_cell -> Spec.t
(** Rebuild a [Spec.Build] spec around the shipped image: the cell's
    sharding fields inside the receiver's own [policy]. *)

val cell_key : wire_cell -> string
(** The cell's result-store key ({!Cache}): program-image MD5 × fault
    space × limit × shard size × weighting.  The one derivation the
    engine's result-store consult and the campaign service's routing
    share. *)

val segment_fingerprint : string -> int option
(** Parse the first [Seg] payload ([fi-segment v1 fingerprint=<crc32>
    pid=<n>]) back to its fingerprint ([None] if it is not such a
    header). *)

(** {1 The worker side} *)

val serve_jobs : ?timeout:float -> Transport.conn -> unit
(** Conduct [Job] frames until EOF ([timeout] bounds the wait for the
    first only): re-analyse the job's cell unless the previous job's
    has the same {!cell_key} and stride, verify the fingerprint,
    range-check the shard ids, send the [fi-segment v1] header, then
    conduct each shard in order — throttled [h] heartbeats while
    conducting, one record [Seg] plus an [s <id>] [Door] per shard —
    and finish with [end].  Writes nothing but frames; honours
    {!torture_var}.  Returns at once if the peer closes without a job
    (a probe); raises on any other frame, an undecodable job,
    fingerprint disagreement or a bad shard id. *)

val guard : unit -> unit
(** Call first in every [main] of a binary that runs campaigns (the CLI,
    the test runners).  If {!env_var} is set, runs {!serve_jobs} on the
    connection at stdin and exits (0 on success, 3 on failure) —
    otherwise returns immediately. *)

(** {1 The parent side} *)

val spawn : unit -> int * Transport.conn
(** Fork/exec [Sys.executable_name] with {!env_var} set and one end of a
    fresh socketpair as its stdin (its stdout goes to our stderr, so
    stray prints never reach the frame stream), and return its pid and
    our end.  The caller sends the jobs and reaps the pid. *)
