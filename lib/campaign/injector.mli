(** Single-experiment execution.

    One FI experiment: run the benchmark from reset until just before the
    injection cycle, flip one bit, resume to completion (or watchdog),
    and classify the outcome against the golden run — the procedure of
    Section III-B of the paper.

    Experiments are conducted through a {e session provider}: the
    per-campaign object that owns whatever acceleration state the
    experiments share, and hands out independent {!session}s.  Serial
    scans, samplers and every engine backend consume the same provider
    abstraction, so they all share one conduction code path.

    Two providers exist.  {!replay} re-executes from reset for every
    session (the textbook procedure; the reference semantics).  {!plan}
    replays the golden execution once, capturing a {!Machine.Snapshot}
    ladder every [stride] cycles, and then

    - starts each session's pristine machine from the nearest checkpoint
      at or below its first injection cycle instead of from reset, and
    - classifies a faulty run as soon as it provably re-converges with
      the golden execution at a checkpoint (pc, cycle and every
      still-live RAM byte and register agree — liveness comes from the
      golden def/use trace) instead of simulating the remaining cycles,
      and
    - classifies a faulty run as soon as it reaches, at a checkpoint, a
      machine state that an earlier run of the same provider reached
      there: the memo of faulty states, keyed by the exact sparse
      difference from the checkpoint ({!Machine.encode_diff}: all
      registers and all of RAM, not the live subset, plus the serial
      length and event count), for runs whose output so far is
      golden's prefix.

    A run that does neither runs until it halts, traps or reaches the
    watchdog, exactly as under {!replay}.  So every run ends in one of
    four {!exit_kind}s: it stopped on its own, spliced at a ladder rung,
    hit the memo, or reached the watchdog.  Both shortcuts are exact on
    the deterministic machine — outcomes are bit-identical to {!replay}
    (property-tested differentially) — so the checkpoint stride is a
    pure performance knob: it is deliberately excluded from campaign
    fingerprints and result-cache keys. *)

type provider
(** A session provider for one golden run. *)

val replay : Golden.t -> provider
(** The restart-from-reset reference provider. *)

val plan : ?stride:int -> Golden.t -> provider
(** Checkpoint-plan provider with a ladder every [stride] cycles
    (default {!default_stride}).  Costs one traced replay of the golden
    run plus [cycles/stride] machine snapshots up front.  [stride <= 0]
    degrades to {!replay}, with no memo.

    A run that misses the splice at every 8th rung looks its state up
    in the memo; a hit ends the run with the stored outcome, and a
    miss's key is stored with the outcome the run ends with.  The memo
    is one table per process, shared by every provider (keys name the
    checkpoint) and every domain (behind a mutex), allocated on first
    insert.  It holds at most 5 MiB, outside the OCaml heap, whatever
    the number of providers: when its young half fills, the older half
    is dropped. *)

val default_stride : int
(** 128 — around a hundred checkpoints for the bundled kernels; memory
    cost is [cycles/stride] RAM images. *)

val provider_golden : provider -> Golden.t
(** The golden run the provider was built over. *)

(** {1 Exit accounting}

    How each experiment ended, and the simulated cycles it took from
    injection to that exit, summed over a provider's sessions.  The
    counts stay out of journals, fingerprints and progress.  They repeat
    exactly only at [-j 1]: with several domains sharing the memo, which
    run reaches a state first — and so which one hits — depends on
    scheduling.  Outcomes never do. *)

type exit_kind =
  | Stopped  (** Halted, trapped or panicked on its own. *)
  | Ladder_splice
      (** Re-converged with golden at a ladder rung, at the rung's own
          cycle. *)
  | Watchdog
      (** Simulated up to the cycle limit, as {!replay} does.  No
          shortcut ends a run that never stops and never re-converges:
          a proof of non-termination cost more than the cycles it
          saved.  Neither does a run that rejoins golden's instruction
          stream a few cycles early or late: it ends at a halt, a trap,
          the watchdog or the memo. *)
  | Memo_hit  (** Reached a state another run already classified. *)

val exit_kind_name : exit_kind -> string
(** The short name {!pp_counts} prints, e.g. ["watchdog"]. *)

type counts = {
  experiments : int array;
      (** Per exit kind, in declaration order; read with {!exits}. *)
  cycles : int array;  (** Simulated cycles per exit kind. *)
  memo_lookups : int;
  memo_inserts : int;
  memo_resets : int;  (** Generations the process-wide memo dropped. *)
  memo_bytes : int;  (** Bytes the process-wide memo holds. *)
}

val counts : provider -> counts
(** The provider's counts so far.  Exact once its sessions are idle. *)

val exits : counts -> exit_kind -> int
(** Experiments that ended with this exit kind. *)

val pp_counts : Format.formatter -> counts -> unit
(** One line per exit kind, then the memo line. *)

type session
(** An injection session over monotonically non-decreasing injection
    cycles: one pristine machine rolled forward (or hopped forward along
    the provider's checkpoint ladder) between experiments. *)

val session : provider -> session
(** Fresh session positioned at reset. *)

val session_run_at : session -> Coordspace.coord -> Outcome.t
(** Conduct one experiment at a fault-space coordinate on the session's
    pristine machine.  Injection cycles must be presented in
    non-decreasing order.

    @raise Invalid_argument if the coordinate lies outside the fault
    space, or on a decreasing injection cycle. *)

val session_run_flip :
  session -> cycle:int -> flip:(Machine.t -> unit) -> Outcome.t
(** Generalised injection: advance to [cycle − 1], fork, apply [flip]
    (any state mutation — e.g. a register bit flip for the Section-VI-B
    extension) and classify the resumed run.  Same monotonicity
    requirement as {!session_run_at}.

    @raise Invalid_argument on a decreasing injection cycle. *)

val run_at : Golden.t -> Coordspace.coord -> Outcome.t
(** One-shot experiment at an arbitrary coordinate: a plan-of-one,
    conducted on a throwaway {!replay} session (building a checkpoint
    ladder for a single experiment would cost more than the experiment).

    @raise Invalid_argument if [coord] lies outside the fault space. *)
