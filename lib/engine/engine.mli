(** Parallel, journaled, resumable campaign execution.

    This is the reproduction's equivalent of the paper's campaign server
    (Section V): a campaign {!Spec.t} names a fault space (def/use-pruned
    memory, or the register file of Section VI-B), a program cell and an
    execution policy; the engine cuts the space's experiment-class list
    into cycle-contiguous {!Shard}s, executes them on a worker pool —
    each shard on its own {!Injector.Checkpoint} session, which is valid
    because injection cycles are non-decreasing within a shard — and
    merges results by class index, so every returned {!Scan.t} is
    bit-identical to the serial reference [Faultspace.scan] of the same
    cell for {e any} worker count and {e any} backend.

    Three {!Pool.backend}s conduct the shards:

    - {!Pool.Domains} (default) — shared-memory OCaml 5 domains inside
      this process, one pool across the whole matrix.
    - {!Pool.Processes} — fork/exec'd {!Worker} processes, each on one
      end of a socketpair.  A worker receives a {!Worker.wire_job} (a
      {!Worker.wire_cell} plus a shard-id range) and streams back one
      CRC-guarded journal-format record per shard in [Seg] frames, with
      [Door] frames for heartbeats and progress; the parent merges the
      records into the campaign journal as they arrive, so its journal
      is the only durable state.  A worker that exits nonzero, dies on
      a signal or sends a corrupt record leaves its unfinished shards
      unmerged; the parent drives every other worker and cell to
      completion first (maximal journal progress), then raises
      {!Worker_failed} — and a [resume] run replays exactly the missing
      shards.
    - {!Pool.Sockets} — {!Remote} worker daemons reached over TCP
      ([fi-cli worker serve] on each host).  Every connection opens
      with a protocol-version + binary-digest handshake; after it, the
      job and the frames are the local workers' own, read and merged by
      the same loop and dedup/CRC/fingerprint checks, so the §9
      guarantees carry over verbatim.  The daemon re-analyses the cell,
      refusing on campaign-fingerprint disagreement; a vanished daemon
      is a dead worker, and [resume] heals its campaign on a fresh
      fleet.  [jobs] bounds {e per-host} concurrency ([0] adopts each
      daemon's advertised capacity).

    {2 Supervision}

    With a supervising policy ({!Spec.supervised}: an explicit
    [shard_timeout], [max_retries > 0] or [quarantine]), the processes
    and sockets backends are {e self-healing} — campaigns complete,
    bit-identical to the serial scan, despite crashing, hanging or
    stalling workers.  One supervisor drives both over a table of
    worker seats — the processes backend is one local host with [jobs]
    seats, the sockets backend one host per daemon — and for remote
    workers SIGKILL becomes connection teardown:

    - {b Deadlines.}  Workers heartbeat with [Door] frames (one per
      conducted class, throttled).  A worker that completes no shard
      within the deadline — [shard_timeout], or 8× the observed mean
      per-worker shard time when unset — is declared hung (silent) or
      stalled (heartbeats without progress) and SIGKILLed; whatever it
      had not sent in full is discarded.
    - {b Bounded retry.}  A dead worker's unfinished shards return to
      the dispatch queue; the shard being conducted at death is
      charged a retry attempt only when the worker completed no shard
      of its assignment (a death after progress requeues without
      burning budget).  Re-dispatch backs off exponentially from a
      fixed 0.05 s base (0.05 × 2ⁿ⁻¹ s before the [n]-th retry) and
      each shard's budget is [max_retries].  Every retry is journaled as a supervision record,
      so retry accounting survives [resume].
    - {b Quarantine.}  A shard that exhausts its budget is isolated
      when [quarantine] is set: the campaign completes, every other
      shard's results are returned, and the shard is reported in
      {!result.quarantined} (its classes keep the [No_effect]
      placeholder in the scan — consult [quarantined] before treating a
      scan as complete).  With [quarantine] unset, exhaustion raises
      {!Worker_failed} as before.

    {!run_matrix_results} is the one entry point: it drives a whole
    experiment matrix (a list of specs; one cell is a one-element list)
    in three steps — set up each cell (result-store consult, journal
    resume), conduct the pending shards, finish each cell (scan,
    quarantine report, cache publish).  Each cell keeps one set of
    counters; the single {!Progress.hook} sees their sum across the
    matrix.  It returns each cell's quarantine report next to its
    scan.  {!scan_exn} turns a result into a plain scan and
    never returns a silently degraded one: if anything was quarantined
    it raises {!Worker_failed}.

    Journals are keyed by a campaign fingerprint (space tag, program
    name, golden runtime, memory size, sizing policy, full class list
    and shard layout); resuming against a different campaign — including
    a register journal against a memory campaign or vice versa — raises
    {!Journal_mismatch} instead of corrupting results.  A journal whose
    {e middle} fails its CRC (storage corruption, as opposed to the torn
    tail a crash leaves) is likewise rejected.  When a policy names a
    {!Catalog} directory, journal paths are derived from the fingerprint
    and indexed in [journals.idx], so [resume] needs no explicit path.

    {2 The result cache}

    When a policy names a {!Cache} directory, every cell is looked up in
    the content-addressed result store {e before} any shard is
    scheduled.  The cell key ({!Worker.cell_key}) digests the program
    image, the fault-space tag and the plan-shaping policy fields
    (experiment limit, shard size, weighted sizing) — everything that
    determines results; supervision and journal placement are excluded
    because they cannot change them.  A hit replays the published
    journal through the same parse/apply path a [resume] uses (header
    equality, per-record CRC, per-shard dedup), so cached results are
    bit-identical to a fresh run by construction, with {e zero} shard
    executions — {!result.cached} reports it.  Anything short of a
    complete, header-matching journal covering every shard is a miss
    and the cell conducts normally: in particular a quarantine-degraded
    journal can never be served as a hit, and on clean completion a
    cell is only published when nothing was quarantined. *)

exception Journal_mismatch of string
(** The journal at the given path belongs to a different campaign, its
    records contradict the current shard plan, or a complete record
    fails its CRC (storage corruption — only a torn {e tail} is a normal
    crash artifact). *)

exception Worker_failed of string
(** A worker died (nonzero exit, signal, lost connection) or sent a
    corrupt record — and supervision either was off or exhausted a
    shard's retry budget with [quarantine] unset; or a scan-only entry
    point had quarantined shards to report.  Raised only after every
    other worker and cell has been driven as far as it will go and all
    journals are closed, so a [resume] run replays exactly the shards
    the message lists. *)

type quarantined = {
  q_cell : string;  (** The cell's {!Spec.label}. *)
  q_shard : int;  (** Plan shard id. *)
  q_classes : int;  (** Experiment classes the shard carries. *)
  q_class_indices : int array;
      (** Their class indices — the exact coordinates left unconducted. *)
  q_attempts : int;  (** Worker deaths charged before isolation. *)
  q_cause : string;  (** The last worker's cause of death. *)
}
(** One shard given up after killing its worker [max_retries + 1]
    times. *)

type result = {
  scan : Scan.t;
  quarantined : quarantined list;
  cached : bool;
      (** The whole cell was served from the {!Cache} result store:
          outcomes replayed from a published journal, zero shards
          executed.  Always [false] when the policy's [cache] is
          [None]. *)
}
(** A cell's outcome under supervision.  [quarantined = []] means the
    scan is complete and bit-identical to its serial counterpart;
    otherwise the listed shards' classes hold [No_effect] placeholders
    and every other class is still exact. *)

val fingerprint_spec : Spec.t -> int
(** The fingerprint of the campaign a spec describes (analysing the cell
    if its source is a build thunk).  Covers the space tag and the
    policy's shard geometry and sizing, so the same program in memory
    and register space — or under count- and weight-sized shards — gets
    distinct journals. *)

val run_matrix_results :
  ?backend:Pool.backend ->
  ?jobs:int ->
  ?observe:Progress.hook ->
  ?on_event:(string -> unit) ->
  ?secret:string ->
  Spec.t list ->
  result list
(** [run_matrix_results specs] conducts every cell of the matrix and
    returns each cell's {!result} — scan plus quarantine report plus
    cache provenance — in spec order.  Cells whose policy names a
    {!Cache} directory are consulted in the result store first (see the
    module preamble); hits skip scheduling entirely and return with
    [cached = true].

    - [backend] — {!Pool.Domains} (default): one shared domain pool over
      the whole matrix, workers drain the first cell's shards and spill
      into the next as slots free up.  {!Pool.Processes}: cells run in
      sequence, each fanned out over up to [jobs] fork/exec'd worker
      processes ({!Worker}).  {!Pool.Sockets}: like [Processes], but
      the workers are {!Remote} daemons on the named [HOST:PORT]s and
      [jobs] bounds per-host concurrency.  Both worker backends speak
      one protocol ({!Worker.serve_job}) and every backend applies
      a finished shard through the same record path as [resume] and a
      cache hit.
    - [jobs] — worker count, resolved by {!Pool.resolve_jobs}: [0] (or
      omitted) means {!Pool.default_jobs}[ ()]; [1] runs inline, still
      sharded and journal-compatible with any other worker count.
    - [observe] — the one progress channel: a {!Progress.hook} called
      once up front (resumed and cached shards already counted), after
      every completed shard, and after every supervision retry, kill or
      quarantine.  Each snapshot sums the cells' own counters across the
      whole matrix (classes, shards, resumed classes, retries, kills,
      quarantined shards and classes, outcome tally).  An exception it
      raises aborts the run like a crash: journals are closed with
      every shard completed so far, ready for [resume].
    - [on_event] — one human-readable line per supervision event (worker
      killed on deadline, shard retry dispatched, shard quarantined,
      domain-pool stall), as they happen; it defaults to silence.
    - [secret] — arms shared-secret handshake authentication towards
      every {!Pool.Sockets} worker daemon (which must have been started
      with the same secret).

    Journalling is governed by each spec's {!Spec.policy}: per-cell
    journals (explicit paths or catalogue-derived), per-cell resume.  On
    exit — normal or exceptional — every opened journal is closed and
    catalogued, so a matrix interrupted mid-cell resumes with all
    completed shards of {e every} cell recovered.

    Each complete scan is structurally equal to the serial reference
    [Faultspace.scan] of the same cell, for any model, any [jobs] and
    any backend — property-tested.

    @raise Journal_mismatch when resuming against a foreign or corrupt
    journal.
    @raise Worker_failed when a process-backend worker or a remote
    worker dies without supervision to heal it (or a sockets fleet is
    unreachable or mismatched).
    @raise Invalid_argument if [jobs < 0], a [Sockets] backend names no
    host, or some policy sets [resume] with neither [journal] nor
    [catalogue]. *)

val scan_exn : result -> Scan.t
(** The result's scan, or {!Worker_failed} naming every quarantined
    shard — the plain-scan view for callers that cannot use a degraded
    scan. *)
