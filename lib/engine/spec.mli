(** First-class campaign specifications.

    A [Spec.t] names everything the campaign engine needs to conduct one
    {e cell} of an experiment matrix:

    - a {b fault model} — a pluggable {!Faultspace.model} value: the
      def/use-pruned memory bitflips of the paper ({!Faultspace.Bitflip_mem}),
      the register-file space of Section VI-B ({!Faultspace.Bitflip_reg}),
      multi-bit bursts ({!Faultspace.Burst}) or instruction skip
      ({!Faultspace.Skip});
    - a {b program cell} — benchmark name, variant name, and either a
      build thunk (compiled and analysed lazily by the engine) or an
      already-analysed {!Golden.t} / {!Regspace.t};
    - an {b execution policy} — four orthogonal concern groups:
      {!sharding} (shard geometry and sizing — the only group that is
      part of the campaign fingerprint), {!durability} (journal, resume,
      journal directory), {!supervision} (timeouts, retries, quarantine) and
      {!acceleration} (result cache, checkpoint stride) — pure
      throughput/robustness knobs that never shape outcomes.

    Specs are plain values: build one per matrix cell (see
    [Suite.spec_matrix] / [Suite.paper_specs]) and hand the whole list to
    [Engine.run_matrix_results], the engine's one entry point, which
    schedules every cell's shards over one shared worker pool (a single
    cell is a one-element list; [Engine.scan_exn] takes its scan). *)

type source =
  | Build of (unit -> Program.t)
      (** Compile on demand; the engine runs the model's analysis
          itself. *)
  | Analysed_memory of Golden.t
      (** Pre-analysed golden run, for the memory-indexed models
          ({!Faultspace.Bitflip_mem}, {!Faultspace.Burst},
          {!Faultspace.Skip}). *)
  | Analysed_registers of Regspace.t
      (** Pre-analysed register-space cell
          ({!Faultspace.Bitflip_reg}). *)

type sharding = {
  shard_size : int option;  (** Classes per shard; [None] = default. *)
  weighted : bool;
      (** Size shards by estimated conducted cycles ([Shard.By_weight])
          instead of class count.  Part of the campaign fingerprint. *)
}

type durability = {
  journal : string option;  (** Explicit journal path. *)
  resume : bool;
      (** Recover completed shards from the journal (at [journal], or
          at the fingerprint path in the [catalogue] directory). *)
  catalogue : string option;
      (** The journal directory.  When set and [journal] is [None], the
          engine journals to [Cache.journal_path] of the campaign
          fingerprint under this directory, so a later [resume] needs
          no explicit path.  Nothing is indexed: the name is derived. *)
}

type supervision = {
  shard_timeout : float option;
      (** Supervision deadline, in seconds, for one worker to make shard
          progress.  [None] derives a deadline from the observed shard
          rate once enough shards have completed (and imposes none
          before that).  A worker that blows the deadline is declared
          hung, SIGKILLed, and its unfinished shards retried.  Not part
          of the campaign fingerprint. *)
  max_retries : int;
      (** Retry budget {e per shard}: how many times a shard whose
          worker died (crash, hang, stall) is re-dispatched to a fresh
          worker before it is given up — quarantined if [quarantine],
          failed otherwise.  [0] disables automatic retry (the seed
          behaviour: a dead worker surfaces as [Engine.Worker_failed]
          and recovery is a manual [--resume]). *)
  quarantine : bool;
      (** Isolate a shard that exhausts [max_retries] instead of failing
          the cell: the campaign completes, the shard's classes stay
          unconducted, and the engine reports it in
          [Engine.result.quarantined].  With [quarantine = false] an
          exhausted shard raises [Engine.Worker_failed] as before.
          Re-dispatch backs off exponentially from a fixed base (see
          [Engine]). *)
}

type acceleration = {
  cache : string option;
      (** Result-cache directory ({!Cache}).  When set, the engine
          consults the content-addressed store before scheduling any
          shards — a hit replays the cached journal to bit-identical
          results with zero shard executions — and publishes this
          cell's journal on clean completion.  With neither [journal]
          nor [catalogue] set, that journal is written in this
          directory, at [Cache.journal_path].  [None] disables both
          directions.  Not part of the campaign fingerprint. *)
  checkpoint_stride : int option;
      (** Checkpoint ladder stride, in cycles, for the snapshot-
          accelerated injection hot path ([Injector.plan]).  [None] uses
          [Injector.default_stride]; [Some n] with [n <= 0] disables the
          ladder entirely (restart-from-reset [Injector.replay]
          semantics).  A pure performance knob: outcomes are
          bit-identical at every stride, so it is deliberately excluded
          from campaign fingerprints and result-cache keys. *)
}

type policy = {
  sharding : sharding;
  durability : durability;
  supervision : supervision;
  acceleration : acceleration;
}

val default_supervision : supervision

val default_policy : policy
(** No journal, no journal directory, no resume, count-sized default
    shards, no supervision ([shard_timeout = None], [max_retries = 0],
    [quarantine = false]), no result cache, and the default checkpoint
    stride — outcome-wise, the seed engine's
    exact behaviour. *)

val make_policy :
  ?shard_size:int ->
  ?weighted:bool ->
  ?journal:string ->
  ?resume:bool ->
  ?catalogue:string ->
  ?shard_timeout:float ->
  ?max_retries:int ->
  ?quarantine:bool ->
  ?cache:string ->
  ?checkpoint_stride:int ->
  unit ->
  policy
(** Smart constructor over the flat leaf fields — every omitted label
    takes its {!default_policy} value, so call sites need not know the
    grouping.  [make_policy ()] = {!default_policy}. *)

val supervised : policy -> bool
(** Whether any supervision feature is on: an explicit [shard_timeout],
    a nonzero [max_retries], or [quarantine]. *)

type t = {
  benchmark : string;  (** e.g. ["bin_sem2"]. *)
  variant : string;  (** e.g. ["baseline"] or ["sum+dmr"]. *)
  model : Faultspace.model;
  source : source;  (** Must agree with [model] (constructors do). *)
  limit : int option;  (** Golden-run watchdog for [Build] sources. *)
  policy : policy;
}

val label : t -> string
(** ["bench/variant"] for {!Faultspace.Bitflip_mem}, with
    ["@registers"] appended for register cells and ["@<tag>"] for every
    other model — so each model gets its own per-cell journal under a
    matrix journal stem. *)

val build :
  ?variant:string ->
  ?limit:int ->
  ?policy:policy ->
  model:Faultspace.model ->
  benchmark:string ->
  (unit -> Program.t) ->
  t
(** Cell of an arbitrary fault model from a build thunk (default
    variant ["baseline"]). *)

val memory :
  ?variant:string ->
  ?limit:int ->
  ?policy:policy ->
  benchmark:string ->
  (unit -> Program.t) ->
  t
(** [build ~model:Faultspace.Bitflip_mem]. *)

val registers :
  ?variant:string ->
  ?limit:int ->
  ?policy:policy ->
  benchmark:string ->
  (unit -> Program.t) ->
  t
(** [build ~model:Faultspace.Bitflip_reg].  The default variant is
    ["baseline"], like every other constructor: the register-ness is the
    {e model}'s business and shows up in {!label}'s ["@registers"]
    suffix — callers pass the actual hardening variant so matrix
    reports never mislabel register cells. *)

val of_golden :
  ?variant:string -> ?policy:policy -> ?model:Faultspace.model -> Golden.t -> t
(** Cell from an existing golden run; [benchmark] is the program name.
    [model] (default {!Faultspace.Bitflip_mem}) may be any
    memory-indexed model.
    @raise Invalid_argument for {!Faultspace.Bitflip_reg} — a register
    cell needs the register analysis, use {!of_regspace}. *)

val of_regspace : ?variant:string -> ?policy:policy -> Regspace.t -> t
(** Register-space cell from an existing register analysis.  The
    default variant is ["baseline"] — pass the actual hardening variant
    (the analysis itself cannot know it). *)

val with_policy : policy -> t -> t
