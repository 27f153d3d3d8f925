(** The campaign worker: the one protocol every worker speaks, local or
    remote, and the local (fork/exec) way to start one.

    A worker reads one {!wire_job} in a [Job] frame — the Runcell-level
    cell description (program image, plan-shaping policy fields,
    campaign fingerprint, shard ids), marshalled {e without} [Closures]
    — re-analyses the cell, refuses if its own fingerprint disagrees
    with the conductor's, and conducts its shards in order.  Everything
    it says goes back as frames on the same {!Transport.conn}: [Seg]
    frames carry journal-format lines (the [fi-segment v1] header first,
    then one CRC-guarded shard record per shard) and [Door] frames carry
    doorbell lines ([h] heartbeat, [s <id>] per completed shard, [end]
    on clean completion).  EOF on the connection is the parent's death
    notice, whatever the cause.

    A local worker ({!Pool.Processes}) is this very executable re-exec'd
    with {!env_var} set and one end of a Unix socketpair as its stdin:
    the first thing every engine-hosting binary does is call {!guard},
    which diverts such a process into {!serve_job} before any other code
    runs.  A remote worker ({!Remote}) runs the same {!serve_job} after
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
    shards.  [MODE] is [exit] (exit code 7), [raise] (uncaught
    exception, exit 3), [sigkill] (SIGKILL itself between shards),
    [torn] (send a CRC-invalid [Seg] line, then SIGKILL — a crash
    mid-record), [hang] (sleep forever: no heartbeat, no progress — only
    a supervision deadline ends it) or [stall] (livelock: heartbeats
    keep flowing but shard progress stops).  [poison:S[:W]] is
    different: [S] is a {e plan shard id}, and the worker SIGKILLs
    itself immediately before conducting that shard — the deterministic
    poison coordinate that exercises shard quarantine, since it follows
    the shard through every retry.  Unset, empty or unparseable values
    inject nothing.  Local and remote workers honour it alike in
    {!conduct_job}; a remote daemon reads its own environment. *)

(** {1 Wire job} *)

type wire_job = {
  benchmark : string;
  variant : string;
  model : Faultspace.model;
  limit : int option;
  shard_size : int option;
  weighted : bool;
  stride : int option;
      (** The conductor's checkpoint stride, honoured by the worker so
          both ends accelerate identically.  A pure perf knob — not part
          of the fingerprint the worker verifies (outcomes are
          bit-identical at any stride). *)
  program : Program.t;  (** The assembled image — plain data. *)
  fingerprint : int;  (** Conductor's campaign fingerprint; verified. *)
  shard_ids : int array;  (** Plan shard ids to conduct, in order. *)
  index : int;
      (** Spawn ordinal within the cell (retry workers get fresh
          indices), for diagnostics and [torture] targeting. *)
}

val encode_job : wire_job -> string
(** Versioned wire format: a [fi-wire v1] magic then [Marshal] {e
    without} [Closures] — sound because both ends are the same binary
    (by construction locally, by {!Handshake.check} remotely). *)

val decode_job : string -> wire_job option

val wire_of_spec :
  Spec.t ->
  program:Program.t ->
  fingerprint:int ->
  shard_ids:int array ->
  index:int ->
  wire_job

val spec_of_wire : wire_job -> Spec.t
(** Rebuild a [Spec.Build] spec around the shipped image.  Only the
    plan-shaping policy fields cross the wire; journalling, resume and
    supervision stay with the conducting parent. *)

val program_of_spec : Spec.t -> Program.t
(** Extract the program image a spec describes (building it if the
    source is a thunk). *)

val segment_fingerprint : string -> int option
(** Parse the first [Seg] payload ([fi-segment v1 fingerprint=<crc32>
    pid=<n>]) back to its fingerprint ([None] if it is not such a
    header). *)

(** {1 The worker side} *)

val conduct_job : Transport.conn -> wire_job -> unit
(** The shard loop: re-analyse the cell and verify the job's
    fingerprint, range-check the shard ids, send the [fi-segment v1]
    header, then conduct each shard in order — throttled [h] heartbeats
    while conducting, one record [Seg] plus an [s <id>] [Door] per
    shard — and finish with [end].  Writes nothing but frames.  Honours
    {!torture_var}.  Raises on fingerprint disagreement or a bad shard
    id. *)

val serve_job : ?timeout:float -> Transport.conn -> unit
(** Receive one [Job] frame (within [timeout], if given) and
    {!conduct_job} it.  Returns at once if the peer closes without a job
    (a probe); raises on any other frame or an undecodable job. *)

val guard : unit -> unit
(** Call first in every [main] of a binary that runs campaigns (the CLI,
    the test runners).  If {!env_var} is set, runs {!serve_job} on the
    connection at stdin and exits (0 on success, 3 on failure) —
    otherwise returns immediately. *)

(** {1 The parent side} *)

val spawn : wire_job -> int * Transport.conn
(** Fork/exec [Sys.executable_name] with {!env_var} set and one end of a
    fresh socketpair as its stdin (its stdout goes to our stderr, so
    stray prints never reach the frame stream), send it [job], and
    return its pid and our end.  The caller must be ignoring [SIGPIPE]
    (the engine's scheduler is): a child that dies before reading its
    job surfaces as a supervision event, not a parent crash.  The caller
    reaps the pid. *)
