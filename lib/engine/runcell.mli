(** The cell conductor shared by the engine's backends.

    A {!Spec.t} is analysed into a {!Faultspace.cell} — the golden run,
    the fault model's class partition, its row footprint, the
    per-experiment conductor of its space and the session provider at
    the policy's checkpoint stride — and conducted shard by shard.  Both
    execution backends use this module — the {!Pool.Domains} scheduler
    inside {!Engine}, and the fork/exec'd worker processes of {!Worker}
    — so the campaign identity (fingerprints) and the journal wire
    format (header and shard-record payloads) are defined here exactly
    once.  The spec itself stays with its caller: the engine's per-cell
    runtime and a worker's job keep it beside the cell. *)

exception Journal_mismatch of string
(** Re-exported as {!Engine.Journal_mismatch}. *)

val mismatch : ('a, unit, string, 'b) format4 -> 'a
(** [mismatch fmt ...] raises {!Journal_mismatch} with the formatted
    message. *)

(** The engine's cell is {!Faultspace.cell}, re-exported with its
    fields so that the repository benchmark ([bench/e2e/fibench.ml]),
    which spells [Runcell]-qualified fields, keeps compiling; it changes
    only together with that benchmark. *)
type cell = Faultspace.cell = {
  model : Faultspace.model;
  golden : Golden.t;
  classes : Defuse.byte_class array;
  ram_bytes : int;
  benign_weight : int;
  rows : int;
  slots : int;
  locate : Faultspace.coord -> int option;
  inject : Injector.session -> Faultspace.coord -> Outcome.t;
  conduct :
    Injector.session -> Defuse.byte_class -> bit_in_byte:int -> Outcome.t;
  provider : unit -> Injector.provider;
}

val analyse : Spec.t -> cell
(** Resolve a spec through its fault model: {!Faultspace.analyse} of a
    build thunk's program, or {!Faultspace.of_golden} of an analysed
    golden run, and pass the cell through {!Faultspace.with_stride}
    when the policy sets [acceleration.checkpoint_stride]. *)

val fingerprint_cell : cell -> plan:Shard.plan -> int
(** CRC-32 campaign identity over the fault-model tag
    ({!Faultspace.tag}), program name, golden runtime, row footprint,
    shard geometry/sizing and full class list.  The class list's
    decimals are streamed into the digest ({!Crc32.add_char}); no text
    is built.  The legacy models keep their pre-subsystem tags, so their
    fingerprints are byte-identical to before. *)

val plan_of_policy : Spec.policy -> Defuse.byte_class array -> Shard.plan
(** The shard plan a policy prescribes for a class list — the single
    place shard geometry is derived from a policy, shared by parent and
    worker processes so both always agree on shard ids. *)

val header_payload : cell -> plan:Shard.plan -> fp:int -> string
(** The campaign journal's header record. *)

val record_payload : Shard.t -> Bytes.t -> string
(** One journal record: [shard=<id> outcomes=<8×classes chars>]. *)

val parse_record : Shard.plan -> string -> (Shard.t * string) option
(** Parse a {!record_payload} back against [plan] — from a journal, a
    cache entry or a worker's [Seg] frame alike; [None] on any
    malformation (bad id, wrong outcome-string length, a character that
    {!Outcome.of_char} does not decode). *)

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
    is journal compaction's gate ({!Engine.compact}) — only such
    journals may be deleted.  Torn, corrupt, quarantine-degraded
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
