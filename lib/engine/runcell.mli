(** The cell conductor shared by the engine's backends.

    A {!cell} is a {!Spec.t} resolved to everything a conductor needs:
    the golden run, the fault-space partition, its RAM footprint and the
    per-experiment conductor of its space.  Both execution backends use
    this module — the {!Pool.Domains} scheduler inside {!Engine}, and the
    fork/exec'd worker processes of {!Worker} — so the campaign identity
    (fingerprints) and the journal wire format (header and shard-record
    payloads) are defined here exactly once. *)

exception Journal_mismatch of string
(** Re-exported as {!Engine.Journal_mismatch}. *)

val mismatch : ('a, unit, string, 'b) format4 -> 'a
(** [mismatch fmt ...] raises {!Journal_mismatch} with the formatted
    message. *)

type cell = {
  spec : Spec.t;
  golden : Golden.t;
  classes : Defuse.byte_class array;
      (** The fault model's experiment classes ([Faultspace.cell]'s),
          [t_end]-sorted. *)
  benign_weight : int;
      (** A-priori-benign fault-space weight of the model. *)
  ram_bytes : int;  (** Real, pseudo or synthetic row footprint. *)
  slots : int;
      (** Slots that are real experiments ([Faultspace.cell]'s); the
          rest are weight-0 padding. *)
  provider : unit -> Injector.provider;
      (** The session provider every conductor of this cell draws from —
          an [Injector.plan] at the policy's
          [acceleration.checkpoint_stride].  Deferred and memoised
          (domain-safely), so a parent process that only
          analyses/schedules never builds the checkpoint ladder; the
          first conducting caller builds it exactly once. *)
  conduct : Injector.session -> Defuse.byte_class -> bit_in_byte:int -> Outcome.t;
}

val analyse : Spec.t -> cell
(** Resolve a spec through its fault model ({!Faultspace.analyse} /
    {!Faultspace.of_golden} / {!Faultspace.of_regspace}), running the
    golden (and, for register cells, the register-trace) analysis if the
    source is a build thunk.
    @raise Invalid_argument if the spec's model contradicts its analysed
    source. *)

val fingerprint_cell : cell -> plan:Shard.plan -> int
(** CRC-32 campaign identity over the fault-model tag
    ({!Faultspace.tag}), program name, golden runtime, row footprint,
    shard geometry/sizing and full class list.  The legacy models keep
    their pre-subsystem tags, so their fingerprints are byte-identical
    to before. *)

val plan_of_policy : Spec.policy -> Defuse.byte_class array -> Shard.plan
(** The shard plan a policy prescribes for a class list — the single
    place shard geometry is derived from a policy, shared by parent and
    worker processes so both always agree on shard ids. *)

val header_payload : cell -> plan:Shard.plan -> fp:int -> string
(** The campaign journal's header record. *)

val record_payload : Shard.t -> Bytes.t -> string
(** One journal record: [shard=<id> outcomes=<8×classes chars>]. *)

val parse_record : Shard.plan -> string -> (Shard.t * string) option
(** Parse a {!record_payload} back against [plan]; [None] on any
    malformation (bad id, wrong outcome-string length). *)

val journal_model_tag : string -> string option
(** The [space=<tag>] token of the {!header_payload} of the journal at a
    path — the fault model the journal was written under ([None] when the
    file is missing, unreadable or headerless, or not an engine
    journal).  Lets the CLI refuse a [--fault-model] that disagrees with
    an existing journal instead of silently truncating it. *)

type supervision =
  | Retry of { shard : int; attempt : int; cause : string }
      (** Shard [shard]'s worker died ([cause]); the supervisor
          re-dispatched it as attempt [attempt] (1-based). *)
  | Quarantine of { shard : int; attempts : int; cause : string }
      (** Shard [shard] exhausted its retry budget after [attempts]
          worker deaths and was isolated. *)

val supervision_payload : supervision -> string
(** The journal payload of a supervision event ([sup retry ...] /
    [sup quarantine ...]); [cause] is newline-sanitized.  Shares the
    campaign journal with shard records, so retry accounting and
    [--resume] compose: a resumed campaign restores each shard's burned
    attempt count before conducting anything. *)

val parse_supervision : string -> supervision option
(** Parse a {!supervision_payload} ([None] for any other payload). *)

val journal_finished : string -> bool
(** Whether [path] is a {e finished} campaign journal: replays [Clean]
    with an engine header, and every plan shard id has a record.  This
    is journal compaction's gate — only such journals may be folded
    into the CSV store and pruned.  Torn, corrupt, quarantine-degraded
    or foreign files are all [false]. *)

val conduct_shard :
  ?on_class:(class_index:int -> string -> unit) ->
  cell ->
  classes:Defuse.byte_class array ->
  plan:Shard.plan ->
  Shard.t ->
  Bytes.t
(** Conduct every experiment of one shard on a fresh session from the
    cell's provider (valid because injection cycles are non-decreasing
    within a shard) and return the packed outcome characters.
    [on_class] is called once per completed class with its index and its
    8 outcome characters — the hook the in-process backend uses for live
    tallies/progress. *)
